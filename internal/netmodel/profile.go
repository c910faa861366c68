package netmodel

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"time"
)

// ProfileSchema identifies the JSON machine-profile format version.
const ProfileSchema = "brick-netmodel/v1"

// Profile is the on-disk form of a Machine: a measured (or hand-tuned)
// α/β profile that experiments can load by path wherever a built-in
// machine name is accepted. cmd/netcal writes one from a ping-pong and
// bandwidth sweep over the tcp transport, turning the built-in profiles
// from fiction into calibration targets.
type Profile struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	// Source records how the profile was produced (e.g. the netcal
	// command line), for provenance when profiles are checked in.
	Source string      `json:"source,omitempty"`
	Net    LinkProfile `json:"net"`
	Host   LinkProfile `json:"host,omitempty"`
	Direct LinkProfile `json:"direct,omitempty"`
	Fault  LinkProfile `json:"fault,omitempty"`
	// PageSizeBytes is the host base page size (MemMap padding
	// granularity); 0 falls back to 4 KiB at load.
	PageSizeBytes int `json:"page_size_bytes,omitempty"`
	// TypeElemCostNs is the modeled per-element derived-datatype cost.
	TypeElemCostNs float64 `json:"type_elem_cost_ns,omitempty"`
}

// LinkProfile is one α–β channel in JSON form.
type LinkProfile struct {
	LatencyNs    float64 `json:"latency_ns"`
	BandwidthBps float64 `json:"bandwidth_bps"`
}

func toLinkProfile(l Link) LinkProfile {
	return LinkProfile{LatencyNs: float64(l.Latency.Nanoseconds()), BandwidthBps: l.Bandwidth}
}

func (lp LinkProfile) link() Link {
	return Link{Latency: time.Duration(lp.LatencyNs * float64(time.Nanosecond)), Bandwidth: lp.BandwidthBps}
}

// ToProfile captures a Machine as a serializable profile.
func ToProfile(m Machine, source string) Profile {
	return Profile{
		Schema: ProfileSchema,
		Name:   m.Name,
		Source: source,
		Net:    toLinkProfile(m.Net),
		Host:   toLinkProfile(m.Host),
		Direct: toLinkProfile(m.Direct),
		Fault:  toLinkProfile(m.Fault),

		PageSizeBytes:  m.PageSize,
		TypeElemCostNs: float64(m.TypeElemCost.Nanoseconds()),
	}
}

// Machine converts a loaded profile back into a Machine, applying the
// defaults a minimal measured profile leaves unset.
func (p Profile) Machine() Machine {
	m := Machine{
		Name:         p.Name,
		Net:          p.Net.link(),
		Host:         p.Host.link(),
		Direct:       p.Direct.link(),
		Fault:        p.Fault.link(),
		PageSize:     p.PageSizeBytes,
		TypeElemCost: time.Duration(p.TypeElemCostNs * float64(time.Nanosecond)),
	}
	if m.PageSize <= 0 {
		m.PageSize = os.Getpagesize()
	}
	return m
}

// SaveFile writes the machine as a brick-netmodel/v1 profile.
func SaveFile(path string, m Machine, source string) error {
	b, err := json.MarshalIndent(ToProfile(m, source), "", "  ")
	if err != nil {
		return fmt.Errorf("netmodel: encoding profile: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadFile reads a brick-netmodel/v1 profile and returns its Machine. A
// wrong schema, a file that is not a profile at all, or a value no link can
// have is an error, so a stray path passed as -machine fails loud instead
// of silently modeling with garbage.
func LoadFile(path string) (Machine, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Machine{}, fmt.Errorf("netmodel: %w", err)
	}
	m, err := parseProfile(b)
	if err != nil {
		return Machine{}, fmt.Errorf("netmodel: %s: %w", path, err)
	}
	return m, nil
}

// parseProfile decodes and checks the bytes of a profile: its schema, its
// name, and every field finite and non-negative, and within time.Duration
// range where it becomes one.
func parseProfile(b []byte) (Machine, error) {
	var p Profile
	if err := json.Unmarshal(b, &p); err != nil {
		return Machine{}, err
	}
	if p.Schema != ProfileSchema {
		return Machine{}, fmt.Errorf("unexpected schema %q (want %q)", p.Schema, ProfileSchema)
	}
	if p.Name == "" {
		return Machine{}, errors.New("profile has no name")
	}
	if p.PageSizeBytes < 0 {
		return Machine{}, fmt.Errorf("page_size_bytes %d is negative", p.PageSizeBytes)
	}
	links := []struct {
		name string
		lp   LinkProfile
	}{{"net", p.Net}, {"host", p.Host}, {"direct", p.Direct}, {"fault", p.Fault}}
	for _, l := range links {
		if err := checkNs(l.name+".latency_ns", l.lp.LatencyNs); err != nil {
			return Machine{}, err
		}
		if bw := l.lp.BandwidthBps; !(bw >= 0) || math.IsInf(bw, 1) {
			return Machine{}, fmt.Errorf("%s.bandwidth_bps %v is not a finite non-negative rate", l.name, bw)
		}
	}
	if err := checkNs("type_elem_cost_ns", p.TypeElemCostNs); err != nil {
		return Machine{}, err
	}
	return p.Machine(), nil
}

// checkNs rejects a nanosecond count that is NaN, negative, or at least
// 2^63, the first value a time.Duration cannot hold.
func checkNs(field string, ns float64) error {
	if !(ns >= 0 && ns < math.MaxInt64) {
		return fmt.Errorf("%s %v is not a non-negative duration within time.Duration range", field, ns)
	}
	return nil
}
