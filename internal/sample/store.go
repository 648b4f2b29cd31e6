package sample

// StoreStats is kept only so perfbench builds; it always reads zero.
type StoreStats struct {
	Built uint64 `json:"built"`
}

// Store is kept only so perfbench builds: the planner warms each
// sampled job in place and keeps no warm state between jobs.
type Store struct{}

// NewStore is kept only so perfbench builds. Its argument is ignored.
func NewStore(string) *Store { return &Store{} }

// Stats is kept only so perfbench builds: it returns zero counters.
func (*Store) Stats() StoreStats { return StoreStats{} }
