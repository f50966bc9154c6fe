package netlist_test

import (
	"testing"

	"edacloud/internal/designs"
	"edacloud/internal/synth"
	"edacloud/internal/techlib"
)

// TestMappedEvalDesignsKeepTheirIdentity: the fingerprint keys the
// artifact cache and ApproxBytes is what the cache accounts a netlist
// in, so both must read what they read when every cell and net stored
// its name. The values were taken from that layout: each eval design at
// scale 0.05, optimized with resyn2 and mapped unregistered, and raw
// with registered outputs (which adds clk and a DFF per output).
// Fingerprint reads the derived names from a stack buffer and
// allocates nothing.
func TestMappedEvalDesignsKeepTheirIdentity(t *testing.T) {
	lib := techlib.Default14nm()
	for _, tc := range []struct {
		design, recipe string
		registered     bool
		cells          int
		fingerprint    uint64
		bytes          int64
	}{
		{"dyn_node", "resyn2", false, 219, 0xaf8af6032c06a6b9, 33908},
		{"dyn_node", "raw", true, 306, 0xb19ad2235b841d3a, 42218},
		{"aes", "resyn2", false, 866, 0x96fe73cb6053a1b9, 101736},
		{"aes", "raw", true, 1012, 0x0226c17faabf030a, 116145},
		{"ibex", "resyn2", false, 796, 0x588327eb3d58c208, 94154},
		{"ibex", "raw", true, 910, 0x23a6923e66444f3a, 105127},
		{"jpeg", "resyn2", false, 1405, 0xab1e9c7674c896f3, 157352},
		{"jpeg", "raw", true, 1490, 0xacf511c3aa0fb664, 164993},
		{"swerv", "resyn2", false, 2033, 0x787cd8f092afc721, 224218},
		{"swerv", "raw", true, 2135, 0xa8c36b6a796ea75e, 233441},
		{"ariane", "resyn2", false, 2779, 0x96f07e231eaa85f8, 303636},
		{"ariane", "raw", true, 2888, 0xa432bdb3e232d4b1, 313053},
		{"coyote", "resyn2", false, 2941, 0x13e5325d7bb45ee1, 319605},
		{"coyote", "raw", true, 3040, 0xfa4ff3ad0ca87de4, 327610},
		{"sparc_core", "resyn2", false, 3551, 0xeb81aed52a48107f, 382670},
		{"sparc_core", "raw", true, 3474, 0x477fd405ca37c302, 371963},
	} {
		recipe, err := synth.RecipeByName(tc.recipe)
		if err != nil {
			t.Fatal(err)
		}
		res, err := synth.Synthesize(designs.MustEvalDesign(tc.design, 0.05), lib, synth.Options{Recipe: recipe, RegisterOutputs: tc.registered})
		if err != nil {
			t.Fatal(err)
		}
		nl := res.Netlist
		if nl.NumCells() != tc.cells || nl.Fingerprint() != tc.fingerprint || nl.ApproxBytes() != tc.bytes {
			t.Errorf("%s/%s/registered=%v: %d cells, fingerprint %#016x, %d bytes; want %d, %#016x, %d",
				tc.design, tc.recipe, tc.registered, nl.NumCells(), nl.Fingerprint(), nl.ApproxBytes(), tc.cells, tc.fingerprint, tc.bytes)
		}
		if allocs := testing.AllocsPerRun(3, func() { nl.Fingerprint() }); allocs != 0 {
			t.Errorf("%s/%s/registered=%v: Fingerprint made %g allocations", tc.design, tc.recipe, tc.registered, allocs)
		}
	}
}
