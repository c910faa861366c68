package netmodel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestProfileRoundTrip: a machine saved as a brick-netmodel/v1 profile
// loads back with every link and property intact.
func TestProfileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	want := SummitV100()
	if err := SaveFile(path, want, "test"); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got != want {
		t.Fatalf("round trip changed the machine:\n got %+v\nwant %+v", got, want)
	}
}

// TestProfileDefaults: a minimal measured profile (name + net only) still
// yields a usable machine — the page size defaults to the host's.
func TestProfileDefaults(t *testing.T) {
	p := Profile{
		Schema: ProfileSchema,
		Name:   "measured",
		Net:    LinkProfile{LatencyNs: 1500, BandwidthBps: 2e9},
	}
	m := p.Machine()
	if m.Name != "measured" || m.Net.Latency != 1500*time.Nanosecond || m.Net.Bandwidth != 2e9 {
		t.Fatalf("net link not restored: %+v", m)
	}
	if m.PageSize != os.Getpagesize() {
		t.Fatalf("page size %d, want host default %d", m.PageSize, os.Getpagesize())
	}
	if m.Cost(Network, 1<<20) <= m.Net.Latency {
		t.Fatal("loaded link charges no bandwidth cost")
	}
}

// TestLoadFileRejects pins the failure modes: missing file, non-JSON,
// wrong schema, and a nameless profile.
func TestLoadFileRejects(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadFile(write("garbage.json", "not json")); err == nil {
		t.Error("non-JSON accepted")
	}
	p := write("schema.json", `{"schema":"brick-netmodel/v0","name":"x","net":{"latency_ns":1,"bandwidth_bps":1}}`)
	if _, err := LoadFile(p); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema not rejected: %v", err)
	}
	p = write("nameless.json", `{"schema":"brick-netmodel/v1","net":{"latency_ns":1,"bandwidth_bps":1}}`)
	if _, err := LoadFile(p); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("nameless profile not rejected: %v", err)
	}
}

// TestParseProfileChecksEveryField: every α, β and per-element cost of a
// profile, not only the net link's, must be finite, non-negative and within
// time.Duration range; a value a link cannot have is an error naming the
// field.
func TestParseProfileChecksEveryField(t *testing.T) {
	const head = `{"schema":"brick-netmodel/v1","name":"x","net":{"latency_ns":1000,"bandwidth_bps":1e9}`
	if _, err := parseProfile([]byte(head + `}`)); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	if m, err := parseProfile([]byte(head + `,"fault":{"latency_ns":9.2e18,"bandwidth_bps":0}}`)); err != nil || m.Fault.Latency != time.Duration(9.2e18) {
		t.Fatalf("latency just inside time.Duration range: %v, %v", m.Fault.Latency, err)
	}
	for _, c := range []struct{ tail, field string }{
		{`,"net":{"latency_ns":-1,"bandwidth_bps":1}}`, "net.latency_ns"},
		{`,"net":{"latency_ns":1,"bandwidth_bps":-1}}`, "net.bandwidth_bps"},
		{`,"host":{"latency_ns":-5,"bandwidth_bps":1e9}}`, "host.latency_ns"},
		{`,"host":{"latency_ns":5,"bandwidth_bps":-1e9}}`, "host.bandwidth_bps"},
		{`,"direct":{"latency_ns":-0.5,"bandwidth_bps":1}}`, "direct.latency_ns"},
		{`,"direct":{"latency_ns":1,"bandwidth_bps":-2}}`, "direct.bandwidth_bps"},
		{`,"fault":{"latency_ns":1e300,"bandwidth_bps":1}}`, "fault.latency_ns"},
		{`,"fault":{"latency_ns":9223372036854775808,"bandwidth_bps":1}}`, "fault.latency_ns"},
		{`,"fault":{"latency_ns":1,"bandwidth_bps":-1e-9}}`, "fault.bandwidth_bps"},
		{`,"type_elem_cost_ns":-3}`, "type_elem_cost_ns"},
		{`,"type_elem_cost_ns":1e19}`, "type_elem_cost_ns"},
		{`,"page_size_bytes":-4096}`, "page_size_bytes"},
	} {
		_, err := parseProfile([]byte(head + c.tail))
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %v, want one naming %s", c.tail, err, c.field)
		}
	}
}
