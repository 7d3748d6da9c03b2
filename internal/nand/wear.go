package nand

// EraseDepth parameterizes how completely an erase pulse train resets a
// block's cells, following the adaptive-erase idea of AERO (arXiv
// 2404.10355): a full erase (depth 1.0) drives every cell all the way back
// to the erased distribution, while a shallow erase stops the pulse train
// early. Shallow erases are proportionally faster and inflict
// proportionally less oxide stress — the block's *effective wear* grows by
// the depth, not by a whole cycle — but they leave the erased distribution
// wider, which costs retention margin on the data programmed afterwards
// (see shallowFactor).
type EraseDepth float64

const (
	// DepthFull is the conventional full-depth erase; it is bit-identical
	// to the device behaviour before adaptive erase existed.
	DepthFull EraseDepth = 1.0
	// MinEraseDepth is the shallowest erase the device accepts. Below
	// this the erased distribution is too poorly formed for any program
	// pass to meet even a zero-retention requirement.
	MinEraseDepth EraseDepth = 0.25
)

// Valid reports whether d is an erase depth the device accepts.
func (d EraseDepth) Valid() bool { return d >= MinEraseDepth && d <= DepthFull }
