package cpu

// BranchPredictor is consulted by the core for conditional branch
// outcomes. When nil, the trace's own misprediction flags are used
// (the default: workloads encode per-site predictability directly).
// Installing a predictor makes mispredictions an emergent property of
// the actual outcome stream instead (ext-branchpred study).
type BranchPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
}

// Gshare is the classic global-history-XOR-PC two-bit-counter
// predictor.
type Gshare struct {
	hist  uint64
	mask  uint64  //catch:nosnap derived from len(table) at construction
	table []uint8 // 2-bit saturating counters, initialized weakly taken

	BPStats
}

// BPStats counts predictor outcomes; embedded so the warmup-boundary
// reset can overwrite it wholesale.
type BPStats struct {
	Predicts    uint64
	Mispredicts uint64
}

// NewGshare builds a gshare predictor with 2^bits counters.
func NewGshare(bits int) *Gshare {
	if bits < 4 {
		bits = 4
	}
	if bits > 24 {
		bits = 24
	}
	n := 1 << bits
	g := &Gshare{mask: uint64(n - 1), table: make([]uint8, n)}
	for i := range g.table {
		g.table[i] = 2 // weakly taken
	}
	return g
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.hist) & g.mask
}

// Predict implements BranchPredictor.
func (g *Gshare) Predict(pc uint64) bool {
	return g.table[g.index(pc)] >= 2
}

// Update implements BranchPredictor.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	if taken {
		if g.table[i] < 3 {
			g.table[i]++
		}
	} else {
		if g.table[i] > 0 {
			g.table[i]--
		}
	}
	g.hist = (g.hist << 1) | b2u(taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
