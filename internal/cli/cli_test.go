package cli

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/netmodel"
)

func TestParseImpl(t *testing.T) {
	cases := map[string]harness.Impl{
		"layout": harness.Layout, "LAYOUT": harness.Layout, " memmap ": harness.MemMap,
		"yask": harness.YASK, "types": harness.MPITypes,
		"basic": harness.Basic, "shift": harness.Shift,
		"gpu-layout": harness.GPULayoutCA, "gpu-um": harness.GPULayoutUM,
		"gpu-memmap": harness.GPUMemMapUM, "gpu-types": harness.GPUTypesUM, "gpu-staged": harness.GPUStaged,
	}
	for name, want := range cases {
		got, err := ParseImpl(name)
		if err != nil || got != want {
			t.Errorf("ParseImpl(%q) = %v, %v", name, got, err)
		}
	}
	for _, gone := range []string{"mpi4", "yask-ol", "layout-ol"} {
		if _, err := ParseImpl(gone); err == nil {
			t.Errorf("unknown impl %q accepted", gone)
		}
	}
	// The help text is the impls table itself, sorted: every accepted name
	// once, and nothing else.
	if got, want := ImplNames(), "basic, gpu-layout, gpu-memmap, gpu-staged, gpu-types, gpu-um, layout, memmap, shift, types, yask"; got != want {
		t.Errorf("ImplNames() = %q, want %q", got, want)
	}
}

func TestParseImplList(t *testing.T) {
	got, err := ParseImplList("memmap, yask,shift")
	if err != nil || len(got) != 3 || got[2] != harness.Shift {
		t.Errorf("list = %v, %v", got, err)
	}
	if _, err := ParseImplList(""); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := ParseImplList("memmap,bogus"); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestParseRanks(t *testing.T) {
	got, err := ParseRanks("2, 3,4")
	if err != nil || got != [3]int{2, 3, 4} {
		t.Errorf("ranks = %v, %v", got, err)
	}
	for _, bad := range []string{"2,3", "2,3,4,5", "a,b,c", "0,1,1", "-1,1,1"} {
		if _, err := ParseRanks(bad); err == nil {
			t.Errorf("ParseRanks(%q) accepted", bad)
		}
	}
}

func TestParseStencil(t *testing.T) {
	for name, pts := range map[string]int{"7pt": 7, "125pt": 125, "5pt": 5, "Star7": 7, "cube125": 125} {
		st, err := ParseStencil(name)
		if err != nil || len(st.Points) != pts {
			t.Errorf("ParseStencil(%q) = %d points, %v", name, len(st.Points), err)
		}
	}
	if _, err := ParseStencil("27pt"); err == nil {
		t.Error("unknown stencil accepted")
	}
}

func TestFaultFlagsApply(t *testing.T) {
	c := &Common{Stencil: "7pt", Machine: "local", Ghost: 4, Brick: 4,
		Fault: "delay:rank=*:mean=1ms", FaultSeed: 9, Watchdog: 2 * time.Second}
	r, err := c.Resolve("test")
	if err != nil {
		t.Fatal(err)
	}
	var cfg harness.Config
	c.Apply(&cfg, r)
	if cfg.Fault != c.Fault || cfg.FaultSeed != 9 || cfg.Watchdog != 2*time.Second {
		t.Errorf("fault flags not applied: %+v", cfg)
	}
}

func TestResolveRejectsBadFaultSpec(t *testing.T) {
	c := &Common{Stencil: "7pt", Machine: "local", Fault: "explode:rank=1"}
	if _, err := c.Resolve("test"); err == nil {
		t.Error("malformed fault spec accepted")
	}
}

func TestParseMachine(t *testing.T) {
	for _, name := range []string{"theta-knl", "summit-v100", "local"} {
		if _, err := ParseMachine(name); err != nil {
			t.Errorf("ParseMachine(%q): %v", name, err)
		}
	}
	if _, err := ParseMachine("frontier"); err == nil {
		t.Error("unknown machine accepted")
	}
}

// TestParseMachineProfileFile: a path to a brick-netmodel/v1 profile
// (cmd/netcal output) is accepted wherever a built-in name is, and a file
// that is not a profile fails loud instead of falling back to a default.
func TestParseMachineProfileFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "measured.json")
	want := netmodel.ThetaKNL()
	want.Name = "measured"
	if err := netmodel.SaveFile(path, want, "test"); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMachine(path)
	if err != nil {
		t.Fatalf("ParseMachine(profile path): %v", err)
	}
	if got != want {
		t.Fatalf("loaded machine %+v, want %+v", got, want)
	}
	bad := filepath.Join(dir, "not-a-profile.json")
	if err := os.WriteFile(bad, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMachine(bad); err == nil {
		t.Error("non-profile file accepted as a machine")
	}
}
