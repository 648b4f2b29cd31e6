package lint

// Analyzers returns a freshly configured instance of every analyzer,
// scoped for this module. Analyzers may carry per-run state (the
// state-coverage family shares one field-reachability engine, and
// key-coverage reads it from its End hook), so each Run must use a
// fresh set.
func Analyzers() []*Analyzer {
	eng := newStateEngine()
	return []*Analyzer{
		NewDeterminism(DefaultDeterminismConfig()),
		NewHotpathNoalloc(),
		NewAtomicConsistency(),
		NewTelemetryDiscipline(),
		NewErrorHygiene(),
		NewAnnotationHygiene(),
		NewSnapshotCoverage(eng),
		NewResetCoverage(eng, DefaultResetCoverageConfig()),
		NewKeyCoverage(eng),
	}
}
