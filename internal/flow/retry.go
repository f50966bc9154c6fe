package flow

// RetryPolicy governs how a job reacts when a spot revocation
// truncates one of its stages mid-run (see cloud.RevocationModel). The
// zero value is usable: sensible defaults apply, and on a fleet
// without a revocation model the policy never engages at all, so
// fault-free schedules are untouched byte for byte.
type RetryPolicy struct {
	// MaxAttempts caps how many times any single stage may run; a stage
	// revoked often enough to need attempt MaxAttempts+1 fails the job.
	// 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BackoffSec delays the re-queue after a revocation: the retried
	// stage becomes ready at RevokedAt+BackoffSec. 0 retries
	// immediately.
	BackoffSec float64
	// EscalateAfter switches a stage from its spot type to the type's
	// on-demand counterpart (cloud.InstanceType.OnDemand) once the
	// stage has been revoked this many times — paying full price to
	// stop losing work. It engages only when the fleet actually holds
	// the on-demand type. 0 never escalates.
	EscalateAfter int
}

// DefaultMaxAttempts is the per-stage attempt cap applied when a
// RetryPolicy leaves MaxAttempts at zero.
const DefaultMaxAttempts = 5

// withDefaults resolves the zero fields.
func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = DefaultMaxAttempts
	}
	if rp.BackoffSec < 0 {
		rp.BackoffSec = 0
	}
	return rp
}
