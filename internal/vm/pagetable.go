package vm

// PageTable is a five-level radix page table, the structure both the GMMUs
// and the IOMMU walk. Each level resolves 9 bits of the VPN (as in x86-64
// with LA57), so a walk touches five levels; the paper charges 100 cycles of
// memory access per level for a 500-cycle total walk (Table I).
//
// The table is a real radix tree rather than a flat map so that walk cost
// accounting (levels touched, shared interior nodes for adjacent VPNs) falls
// out of the structure — in particular, the prefetcher's claim that adjacent
// PTEs live in the same leaf node is directly observable via LeafIndex.
type PageTable struct {
	root   *node
	size   int
	levels int
}

const (
	radixBits = 9
	radixFan  = 1 << radixBits
	radixMask = radixFan - 1
)

type node struct {
	children [radixFan]*node // interior levels
	entries  []PTE           // leaf level, allocated lazily
}

// NewPageTable creates an empty 5-level table.
func NewPageTable() *PageTable {
	return &PageTable{root: &node{}, levels: 5}
}

// Len returns the number of valid mappings.
func (t *PageTable) Len() int { return t.size }

func (t *PageTable) indices(v VPN) [5]int {
	var idx [5]int
	x := uint64(v)
	for l := t.levels - 1; l >= 0; l-- {
		idx[l] = int(x & radixMask)
		x >>= radixBits
	}
	return idx
}

// Insert maps v. Replacing an existing mapping is allowed.
func (t *PageTable) Insert(pte PTE) {
	idx := t.indices(pte.VPN)
	n := t.root
	for l := 0; l < t.levels-1; l++ {
		c := n.children[idx[l]]
		if c == nil {
			c = &node{}
			if l == t.levels-2 {
				c.entries = make([]PTE, radixFan)
			}
			n.children[idx[l]] = c
		}
		n = c
	}
	slot := &n.entries[idx[t.levels-1]]
	if !slot.Valid {
		t.size++
	}
	pte.Valid = true
	*slot = pte
}

// Lookup walks the table and returns the entry for v. levels reports how
// many radix levels were touched before the walk resolved or failed — a
// missing interior node terminates the walk early, exactly as hardware does.
func (t *PageTable) Lookup(v VPN) (pte PTE, levels int, ok bool) {
	idx := t.indices(v)
	n := t.root
	for l := 0; l < t.levels-1; l++ {
		levels++
		c := n.children[idx[l]]
		if c == nil {
			return PTE{}, levels, false
		}
		n = c
	}
	levels++
	e := n.entries[idx[t.levels-1]]
	if !e.Valid {
		return PTE{}, levels, false
	}
	return e, levels, true
}

// LeafIndex returns a key identifying the leaf node v resides in; two VPNs
// with equal LeafIndex share a leaf page-table page, so walking one brings
// the other's PTE into the same memory access. The prefetcher (§IV-G)
// exploits this: fetching N..N+3 after walking N costs one extra leaf read,
// not four walks.
func (t *PageTable) LeafIndex(v VPN) uint64 {
	return uint64(v) >> radixBits
}
