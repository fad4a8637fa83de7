package cq

// Hooks for the external tests of package cq_test.
var (
	RandomServingInstance = randomServingInstance
	RandomDelta           = randomDelta
)

// CheckOutGroups reports how a standing query's out layer departs from a
// full recompute (see checkOutGroups).
func CheckOutGroups(s *StandingQuery) error { return s.checkOutGroups() }
