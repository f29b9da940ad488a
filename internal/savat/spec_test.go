package savat

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/counter"
	"repro/internal/engine"
)

func TestCampaignSpecRoundTrip(t *testing.T) {
	spec := DefaultCampaignSpec()
	spec.Events = []Event{ADD, LDM, DIV}
	spec.Repeats = 3
	spec.Seed = 42
	spec.Config.Distance = 0.50

	data, err := spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCampaignSpec(data)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(back, spec.Normalized()) {
		t.Errorf("round trip changed the spec:\n in %+v\nout %+v", spec.Normalized(), back)
	}

	// Events serialize as mnemonics, not numbers.
	if !strings.Contains(string(data), `"ADD"`) || !strings.Contains(string(data), `"LDM"`) {
		t.Errorf("events should serialize as mnemonics:\n%s", data)
	}

	fpA, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Errorf("round trip changed the fingerprint: %s vs %s", fpA, fpB)
	}
}

func TestCampaignSpecValidate(t *testing.T) {
	base := DefaultCampaignSpec()
	cases := []struct {
		name  string
		tweak func(*CampaignSpec)
		want  error
	}{
		{"future-version", func(s *CampaignSpec) { s.Version = SpecVersion + 1 }, ErrSpecVersion},
		{"unknown-machine", func(s *CampaignSpec) { s.Machine = "Cray1" }, ErrUnknownMachine},
		{"bad-distance", func(s *CampaignSpec) { s.Config.Distance = -1 }, ErrBadDistance},
		{"bad-frequency", func(s *CampaignSpec) { s.Config.Frequency = 0 }, ErrBadFrequency},
		{"bad-repeats", func(s *CampaignSpec) { s.Repeats = 0 }, ErrBadRepeats},
		{"unknown-channel", func(s *CampaignSpec) { s.Config.Channel = "acoustic" }, ErrUnknownChannel},
		{"bad-countermeasure", func(s *CampaignSpec) {
			s.Config.Countermeasures = counter.Chain{{Name: counter.NoopInsert, Param: 2}}
		}, ErrBadCountermeasure},
	}
	for _, c := range cases {
		s := base
		c.tweak(&s)
		if err := s.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", c.name, err, c.want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default spec should validate: %v", err)
	}

	// Version 0 is normalized, not rejected — hand-written specs may
	// omit it.
	s := base
	s.Version = 0
	if err := s.Validate(); err != nil {
		t.Errorf("zero version should normalize: %v", err)
	}

	// An invalid event in the grid is rejected.
	s = base
	s.Events = []Event{ADD, Event(99)}
	if err := s.Validate(); err == nil {
		t.Error("invalid grid event should fail validation")
	}
}

func TestParseCampaignSpecRejectsUnknownFields(t *testing.T) {
	data, err := DefaultCampaignSpec().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	// A typo'd field must fail loudly, not silently run the default.
	bad := strings.Replace(string(data), `"seed"`, `"sede"`, 1)
	if _, err := ParseCampaignSpec([]byte(bad)); err == nil {
		t.Error("unknown field should be rejected")
	}
	if _, err := ParseCampaignSpec([]byte(`{"machine": "Core2Duo"`)); err == nil {
		t.Error("truncated JSON should be rejected")
	}
}

func TestLoadCampaignSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	data, err := DefaultCampaignSpec().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadCampaignSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Machine != "Core2Duo" {
		t.Errorf("loaded %+v", spec)
	}
	if _, err := LoadCampaignSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

// The fingerprint must track exactly the fields that determine cell
// values: events defaulting (nil == all 11) fingerprints equal, while
// any value-determining change fingerprints differently.
func TestCampaignSpecFingerprint(t *testing.T) {
	base := DefaultCampaignSpec()
	fp := func(s CampaignSpec) string {
		t.Helper()
		f, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	all := base
	all.Events = Events()
	if fp(base) != fp(all) {
		t.Error("nil events and the explicit full grid must fingerprint equal")
	}

	for _, tweak := range []func(*CampaignSpec){
		func(s *CampaignSpec) { s.Machine = "Pentium3M" },
		func(s *CampaignSpec) { s.Seed = 2 },
		func(s *CampaignSpec) { s.Repeats = 5 },
		func(s *CampaignSpec) { s.Config.Distance = 1.0 },
		func(s *CampaignSpec) { s.Events = []Event{ADD, LDM} },
		func(s *CampaignSpec) { s.Config.Channel = "power" },
		func(s *CampaignSpec) { s.Config.Channel = "impedance" },
		func(s *CampaignSpec) {
			s.Config.Countermeasures = counter.Chain{{Name: counter.NoopInsert, Param: 0.1}}
		},
	} {
		s := base
		tweak(&s)
		if fp(s) == fp(base) {
			t.Errorf("value-determining change did not change fingerprint: %+v", s)
		}
	}

	// The legacy empty channel and the explicit "em" describe the same
	// campaign: same fingerprint, so v1-era service jobs match.
	em := base
	em.Config.Channel = "em"
	legacy := base
	legacy.Config.Channel = ""
	if fp(em) != fp(legacy) {
		t.Error("empty channel and explicit em must fingerprint equal")
	}
}

// TestSpecVersionGoldenRoundTrip loads the committed wire-format files
// for both spec versions: the version-1 file (written before the channel
// and countermeasure dimensions existed) must normalize to the exact
// canonical v2 spec, and the version-2 file must load its channel and
// countermeasure chain intact and survive a marshal/parse round trip.
func TestSpecVersionGoldenRoundTrip(t *testing.T) {
	v1, err := LoadCampaignSpec(filepath.Join("testdata", "spec-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != SpecVersion {
		t.Errorf("v1 file normalized to version %d, want %d", v1.Version, SpecVersion)
	}
	if v1.Config.Channel != "em" || len(v1.Config.Countermeasures) != 0 {
		t.Errorf("v1 file defaults: channel %q, countermeasures %v", v1.Config.Channel, v1.Config.Countermeasures)
	}
	// The v1 file is the default campaign at the paper's setup with a
	// 3-event grid; its normalized form must equal the same spec written
	// natively in v2 — including the fingerprint that identifies jobs.
	want := DefaultCampaignSpec()
	want.Events = []Event{ADD, LDM, DIV}
	want.Repeats = 3
	want.Seed = 17
	want = want.Normalized()
	if !reflect.DeepEqual(v1, want) {
		t.Errorf("v1 file normalized to:\n%+v\nwant:\n%+v", v1, want)
	}
	fpGot, err := v1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpWant, err := want.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpGot != fpWant {
		t.Error("v1 file fingerprints differently from its native v2 form")
	}

	v2, err := LoadCampaignSpec(filepath.Join("testdata", "spec-v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Config.Channel != "power" {
		t.Errorf("v2 channel %q", v2.Config.Channel)
	}
	wantChain := counter.Chain{
		{Name: counter.NoopInsert, Param: 0.1},
		{Name: counter.SupplyFilter, Param: 20000},
	}
	if !reflect.DeepEqual(v2.Config.Countermeasures, wantChain) {
		t.Errorf("v2 countermeasures %v, want %v", v2.Config.Countermeasures, wantChain)
	}
	data, err := v2.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCampaignSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v2) {
		t.Errorf("v2 marshal/parse round trip changed the spec:\n%+v\nvs\n%+v", back, v2)
	}

	// A future version is rejected no matter how plausible the body.
	future := strings.Replace(string(data), `"version": 2`, fmt.Sprintf(`"version": %d`, SpecVersion+1), 1)
	if _, err := ParseCampaignSpec([]byte(future)); !errors.Is(err, ErrSpecVersion) {
		t.Errorf("future version: got %v, want ErrSpecVersion", err)
	}
}

// RunSpecContext and RunCampaignContext must produce bit-identical
// matrices for the same campaign, and a spec-validation failure must
// still close the caller's monitor channel.
func TestRunSpecMatchesRunCampaign(t *testing.T) {
	spec := DefaultCampaignSpec()
	spec.Config = FastConfig()
	spec.Config.Duration = 1.0 / 16
	spec.Events = []Event{ADD, LDM}
	spec.Repeats = 2
	spec.Seed = 5

	got, err := RunSpec(spec, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := spec.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCampaign(mc, spec.Config, CampaignOptions{
		Events: spec.Events, Repeats: spec.Repeats, Seed: spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got.Cells)
	b, _ := json.Marshal(want.Cells)
	if string(a) != string(b) {
		t.Errorf("RunSpec and RunCampaign disagree:\n%s\nvs\n%s", a, b)
	}

	// A validation failure must still close the monitor channel.
	bad := spec
	bad.Machine = "nope"
	mon := make(chan engine.ProgressEvent, 4)
	if _, err := RunSpec(bad, CampaignOptions{Monitor: mon}); !errors.Is(err, ErrUnknownMachine) {
		t.Fatalf("got %v, want ErrUnknownMachine", err)
	}
	if _, open := <-mon; open {
		t.Error("monitor should be closed on validation failure")
	}
}
