package d003

import (
	"fmt"
	"sort"

	"paratick/internal/snap"
)

// Sorted collects keys and sorts them before use: the sanctioned pattern.
func Sorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Counts accumulates integers: order-independent, legal.
func Counts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Justified documents why ordering is harmless; the directive suppresses
// the finding.
func Justified(m map[string]int) {
	//lint:ordered demo fixture: output is consumed order-insensitively
	for k := range m {
		fmt.Println(k)
	}
}

// SortedSnap collects and sorts the keys before encoding — the sanctioned
// pattern for serializing a map: the bytes are deterministic, no finding
// (the second loop ranges over the sorted slice, not the map).
func SortedSnap(c *snap.Codec, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := m[k]
		c.String(&k)
		c.U64(&v)
	}
}
