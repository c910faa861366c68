// Package cli holds the option parsing shared by the command-line tools, so
// that flag handling is tested once rather than re-implemented per binary.
package cli

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// impls maps the user-facing implementation names to harness values.
var impls = map[string]harness.Impl{
	"yask":       harness.YASK,
	"types":      harness.MPITypes,
	"basic":      harness.Basic,
	"layout":     harness.Layout,
	"memmap":     harness.MemMap,
	"shift":      harness.Shift,
	"gpu-layout": harness.GPULayoutCA,
	"gpu-um":     harness.GPULayoutUM,
	"gpu-memmap": harness.GPUMemMapUM,
	"gpu-types":  harness.GPUTypesUM,
	"gpu-staged": harness.GPUStaged,
}

// ImplNames returns the accepted implementation names, sorted for help text.
func ImplNames() string {
	names := make([]string, 0, len(impls))
	for name := range impls {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ParseImpl resolves one implementation name (case-insensitive).
func ParseImpl(name string) (harness.Impl, error) {
	im, ok := impls[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return 0, fmt.Errorf("unknown implementation %q (choose from %s)", name, ImplNames())
	}
	return im, nil
}

// ParseImplList resolves a comma-separated list of implementation names.
func ParseImplList(list string) ([]harness.Impl, error) {
	var out []harness.Impl
	for _, name := range strings.Split(list, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		im, err := ParseImpl(name)
		if err != nil {
			return nil, err
		}
		out = append(out, im)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no implementations given")
	}
	return out, nil
}

// ParseRanks parses "i,j,k" into a rank grid.
func ParseRanks(s string) ([3]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return [3]int{}, fmt.Errorf("rank grid must be i,j,k")
	}
	var out [3]int
	for a, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return out, fmt.Errorf("bad rank count %q", p)
		}
		out[a] = v
	}
	return out, nil
}

// ParseStencil resolves a stencil name.
func ParseStencil(name string) (stencil.Stencil, error) {
	switch strings.ToLower(name) {
	case "7pt", "star7":
		return stencil.Star7(), nil
	case "125pt", "cube125":
		return stencil.Cube125(), nil
	case "5pt", "star5":
		return stencil.Star5(), nil
	default:
		return stencil.Stencil{}, fmt.Errorf("unknown stencil %q (7pt, 125pt, 5pt)", name)
	}
}

// ParseMachine resolves a machine-profile name: a built-in profile, or
// the path of a measured brick-netmodel/v1 profile file (see cmd/netcal).
func ParseMachine(name string) (netmodel.Machine, error) {
	if _, err := os.Stat(name); err == nil {
		return netmodel.LoadFile(name)
	}
	m, ok := netmodel.ByName(name)
	if !ok {
		return m, fmt.Errorf("unknown machine %q (theta-knl, summit-v100, local, or a brick-netmodel/v1 profile path)", name)
	}
	return m, nil
}
