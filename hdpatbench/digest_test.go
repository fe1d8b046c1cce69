package main

import "testing"

// TestDigestReproducesGoldenKey pins the rendering to the repository's
// golden-digest contract: a key the benchmark anchors on must come out
// byte-identical.
func TestDigestReproducesGoldenKey(t *testing.T) {
	want, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	got, err := anchorDigest("baseline", "SPMV")
	if err != nil {
		t.Fatal(err)
	}
	if got != want["baseline/SPMV"] {
		t.Errorf("baseline/SPMV digest %s, committed %s", got, want["baseline/SPMV"])
	}
}
