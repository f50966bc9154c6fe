// Package cli holds what the command binaries under cmd/ decide the
// same way: how a refusal is printed, how a numeric flag is checked,
// how a spot fleet is priced and armed with revocations, and how a
// design list becomes characterized deployment problems. Each command
// still declares its own flags, defaults and help text; these are
// plain functions it calls with the parsed values.
package cli

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"edacloud/internal/cloud"
	"edacloud/internal/core"
	"edacloud/internal/designs"
	"edacloud/internal/techlib"
)

// Fail prints "prog: err" on stderr and exits with status 1.
func Fail(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(1)
}

// Check fails prog with the first non-nil error, in argument order, so
// a command lists its flag checks in one call before it does any work.
func Check(prog string, errs ...error) {
	for _, err := range errs {
		if err != nil {
			Fail(prog, err)
		}
	}
}

// Refuse returns the formatted error when bad holds, for a check only
// one command makes.
func Refuse(bad bool, format string, args ...any) error {
	if bad {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// NoArgs refuses a positional argument. Go's flag parsing stops at the
// first one, so every flag after it would be dropped silently.
func NoArgs(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q: every option is a -flag", args[0])
	}
	return nil
}

// Count refuses a negative integer flag, such as -workers, where 0
// means "all cores" and a negative value would silently mean the same.
func Count(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s %d: must not be negative", name, v)
	}
	return nil
}

// NonNegative refuses a float flag that is negative, NaN or infinite.
func NonNegative(name string, v float64) error {
	if !(v >= 0) || math.IsInf(v, 0) {
		return fmt.Errorf("-%s %v: must be finite and not negative", name, v)
	}
	return nil
}

// Positive refuses a float flag that is zero, negative, NaN or infinite.
func Positive(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("-%s %v: must be positive and finite", name, v)
	}
	return nil
}

// Scale refuses a design scale designs.CheckScale refuses.
func Scale(name string, v float64) error {
	if err := designs.CheckScale(v); err != nil {
		return fmt.Errorf("-%s: %w", name, err)
	}
	return nil
}

// HazardRate refuses a -hazard-rate that NonNegative refuses or that
// exceeds cloud.MaxHazardPerHour revocations per spot-instance-hour.
func HazardRate(v float64) error {
	if err := NonNegative("hazard-rate", v); err != nil {
		return err
	}
	if v > cloud.MaxHazardPerHour {
		return fmt.Errorf("-hazard-rate %v: above cloud.MaxHazardPerHour (%d/h, one revocation per second of spot time)", v, cloud.MaxHazardPerHour)
	}
	return nil
}

// SpotDiscount is the fraction of the on-demand price a spot twin saves
// under edaflow -spot and optimize -spot: spot bills 30% of on-demand.
const SpotDiscount = 0.7

// SpotCatalog extends catalog with a revocable "<type>.spot" twin of
// every type at discount off its on-demand price, and returns the
// hazard map that puts rate revocations per instance-hour on each twin.
// The map is nil when rate is 0: Arm then leaves a fleet unarmed and a
// planner prices spot at face value.
func SpotCatalog(catalog *cloud.Catalog, discount, rate float64) (*cloud.Catalog, map[string]float64, error) {
	spot, err := catalog.WithSpot(discount)
	if err != nil {
		return nil, nil, err
	}
	if rate == 0 {
		return spot, nil, nil
	}
	return spot, cloud.UniformSpotHazards(spot, rate), nil
}

// Arm gives fleet a fresh revocation model seeded with seed over
// hazards and returns it. Every fleet armed with the same seed and
// hazards replays the same per-instance revocation timelines, which is
// what lets two strategies be compared under identical revocations. A
// nil hazard map leaves fleet as it is.
func Arm(fleet *cloud.Fleet, seed int64, hazards map[string]float64) *cloud.Fleet {
	if hazards != nil {
		fleet.Revocation = cloud.NewRevocationModel(seed, hazards)
	}
	return fleet
}

// Design is one entry of a design list, characterized, with its
// deployment problem over each catalog Designs was given, in order.
type Design struct {
	Name  string
	Char  *core.DesignCharacterization
	Probs []*core.DeploymentProblem
}

// Designs characterizes a design list: one Design per entry, named by
// the entry with surrounding space trimmed. Each distinct name is
// characterized once, in order of first appearance, and its repeats
// share the characterization and the problems.
func Designs(lib *techlib.Library, names []string, opts core.CharacterizeOptions, catalogs ...*cloud.Catalog) ([]Design, error) {
	out := make([]Design, len(names))
	for i, name := range names {
		name = strings.TrimSpace(name)
		if j := slices.IndexFunc(out[:i], func(d Design) bool { return d.Name == name }); j >= 0 {
			out[i] = out[j]
			continue
		}
		char, err := core.CharacterizeEval(lib, name, opts)
		if err != nil {
			return nil, err
		}
		out[i] = Design{Name: name, Char: char}
		for _, c := range catalogs {
			prob, err := core.BuildDeploymentProblem(char, c)
			if err != nil {
				return nil, err
			}
			out[i].Probs = append(out[i].Probs, prob)
		}
	}
	return out, nil
}

// BatchSpecs makes one batch job per design, named "<design>#<index>",
// over the deployment problem the catalog at index catalog priced.
func BatchSpecs(ds []Design, catalog int) []core.BatchJobSpec {
	specs := make([]core.BatchJobSpec, len(ds))
	for i, d := range ds {
		specs[i] = core.BatchJobSpec{Name: fmt.Sprintf("%s#%d", d.Name, i), Char: d.Char, Prob: d.Probs[catalog]}
	}
	return specs
}
