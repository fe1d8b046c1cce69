package geom

// Layers implements HDPAT's concentric caching organisation (§IV-C to §IV-E):
// the C rings closest to the CPU act as translation caching layers; within a
// layer, the wafer is partitioned into quadrant clusters, a VPN picks its
// cluster with VPN mod Nc (Eq. 1) and the GPM within the cluster with
// floor(VPN/Nc) mod Ng (Eq. 2); successive layers rotate their enumeration
// start by 180 degrees so every requester has a nearby caching GPM (Fig 11b).
type Layers struct {
	mesh     *Layout
	C        int       // number of caching layers
	clusters int       // Nc, quadrant count (4 per the paper)
	rings    [][]Coord // rings[l] = rotated tile enumeration of layer l (ring l+1)
}

// Layout couples a Mesh with the concentric-layer machinery. It is the type
// the rest of the system uses to reason about wafer geometry.
type Layout struct {
	*Mesh
}

// NewLayout wraps a mesh.
func NewLayout(m *Mesh) *Layout { return &Layout{Mesh: m} }

// NewLayers builds the concentric layer structure with c caching layers and
// nc clusters per layer. The paper's default is c=2 ("one step away from the
// border" on a 7x7 wafer) and nc=4 (quadrants). Layer index 0 is the
// innermost ring (ring 1); layer c-1 is the outermost caching ring (ring c).
func NewLayers(l *Layout, c, nc int) *Layers {
	if c < 0 {
		panic("geom: negative layer count")
	}
	if nc < 1 {
		nc = 1
	}
	maxR := l.MaxRing()
	if c > maxR {
		c = maxR
	}
	ls := &Layers{mesh: l, C: c, clusters: nc}
	for layer := 0; layer < c; layer++ {
		tiles := l.RingTiles(layer + 1)
		// Rotation (§IV-E): layer index counting begins 180 degrees from the
		// original starting point on every other layer, so cached PTEs for
		// the same VPN sit on opposite sides of the wafer in adjacent layers.
		rot := (layer * len(tiles)) / 2 % maxInt(len(tiles), 1)
		rotated := make([]Coord, len(tiles))
		for i := range tiles {
			rotated[i] = tiles[(i+rot)%len(tiles)]
		}
		ls.rings = append(ls.rings, rotated)
	}
	return ls
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NumLayers returns the number of caching layers (C).
func (ls *Layers) NumLayers() int { return ls.C }

// LayerOf returns the caching-layer index of tile c, or -1 if c is not a
// caching GPM (it is the CPU or lies outside the C rings).
func (ls *Layers) LayerOf(c Coord) int {
	r := ls.mesh.Ring(c)
	if r >= 1 && r <= ls.C {
		return r - 1
	}
	return -1
}

// LayerTiles returns the (rotated) tile enumeration of layer l.
func (ls *Layers) LayerTiles(l int) []Coord { return ls.rings[l] }

// Home returns the unique GPM in layer l responsible for caching vpn,
// applying Eq. 1 and Eq. 2 over the rotated enumeration. With fewer tiles
// than clusters (clipped rings) the arithmetic degrades gracefully to a
// simple modulo over the whole ring.
func (ls *Layers) Home(l int, vpn uint64) Coord {
	ring := ls.rings[l]
	n := len(ring)
	nc := ls.clusters
	if n < nc {
		return ring[vpn%uint64(n)]
	}
	arc := n / nc                                // Ng: GPMs per cluster in this layer
	cluster := int(vpn % uint64(nc))             // Eq. 1
	local := int(vpn / uint64(nc) % uint64(arc)) // Eq. 2
	idx := cluster*arc + local
	// Tiles left over by integer division (n not divisible by nc) extend the
	// last cluster's arc; they are reachable when local wraps there.
	if idx >= n {
		idx %= n
	}
	return ring[idx]
}

// NearestHop returns, for a requester at c, the minimum Manhattan distance to
// any of vpn's per-layer homes; used in tests to validate the rotation
// property ("there is always a nearby chiplet").
func (ls *Layers) NearestHop(c Coord, vpn uint64) int {
	best := -1
	for l := 0; l < ls.C; l++ {
		d := c.Manhattan(ls.Home(l, vpn))
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}
