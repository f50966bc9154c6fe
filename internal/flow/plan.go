package flow

import "edacloud/internal/cloud"

// StagePlan maps each flow stage to the instance type it should run
// on — an executable form of the deployment optimizer's per-stage
// machine selection (core.Plan exports one). A job that carries one
// re-instances between stages: stage k queues for the plan's entry, a
// zero type (empty Name) for whichever fleet instance frees first.
type StagePlan map[JobKind]cloud.InstanceType

// StageOption is one candidate configuration for a stage: the
// instance type with its predicted runtime and bill — one cell of the
// deployment optimizer's choice table in executable form.
type StageOption struct {
	Type    cloud.InstanceType
	Seconds float64
	CostUSD float64
}

// StageChoices maps each stage to its candidate options, in the
// optimizer's table order (smallest instance first). A planned job
// with a deadline is re-planned from it at placement time; for every
// job the placement engine uses it to price stages placed on a type
// other than the one their probe was sized for.
type StageChoices map[JobKind][]StageOption

// Option returns stage k's entry for the named instance type.
func (c StageChoices) Option(k JobKind, typeName string) (StageOption, bool) {
	for _, opt := range c[k] {
		if opt.Type.Name == typeName {
			return opt, true
		}
	}
	return StageOption{}, false
}
