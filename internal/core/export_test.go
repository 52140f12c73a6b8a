package core

// EdgeViewBuilt reports whether the schedule's []graph.Edge view has been
// built, for the resident-footprint tests of package core_test. Callers
// must not race it with a first PhaseAt/Run.
func (s *Schedule) EdgeViewBuilt() bool { return s.view != nil }
