package wire

// HTTP header names of the overload-protection protocol, shared by
// the remote client and service so the two sides cannot drift. They
// are hints and observability, never integrity: nothing here is
// covered by checksums or proofs, and a peer that ignores them gets
// the legacy behavior.
const (
	// HeaderDeadlineMS carries the caller's remaining deadline budget
	// in whole milliseconds, measured at send time. Relative rather
	// than absolute so client/server clock skew cannot turn a healthy
	// deadline into an instant rejection.
	HeaderDeadlineMS = "X-Deadline-Ms"

	// HeaderPlanStrategy names the planner strategy that produced the
	// answer ("twig" or "pairwise"). Answer bytes are strategy-
	// independent by contract, so this travels out-of-band.
	HeaderPlanStrategy = "X-Plan-Strategy"

	// HeaderPlanCost carries the planner's admission-cost estimate
	// for the executed query (decimal).
	HeaderPlanCost = "X-Plan-Cost"
)
