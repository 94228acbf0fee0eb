package dynamic

// CoverageBits exposes the edge bitmap to the external golden test.
func CoverageBits(c *Coverage) []uint64 { return c.bits[:] }
