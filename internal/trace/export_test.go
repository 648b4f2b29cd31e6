package trace

// EmitBufCap returns the capacity of the emit buffer behind a
// generator that Workload.NewGen made.
func EmitBufCap(g Generator) int { return cap(g.(*workloadGen).em.Buf) }

// EmitCap is the capacity NewEmitter gives a buffer.
const EmitCap = emitCap
