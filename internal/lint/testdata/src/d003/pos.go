package d003

import (
	"fmt"

	"paratick/internal/snap"
)

// Render prints a map in iteration order: one finding.
func Render(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Total accumulates floats in map order (float addition is not
// associative): one finding.
func Total(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// SnapCounts feeds a map range straight into a snapshot codec: the
// serialized bytes would depend on iteration order, so two snapshots of
// identical state could fail to compare byte-equal. One finding.
func SnapCounts(c *snap.Codec, m map[string]uint64) {
	for _, v := range m {
		c.U64(&v)
	}
}
