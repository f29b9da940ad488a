package machine

import (
	"reflect"
	"testing"

	"repro/internal/activity"
	"repro/internal/emsim"
)

func TestChannelRegistry(t *testing.T) {
	want := []string{"em", "impedance", "power"}
	if got := ChannelNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ChannelNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		ch, err := ChannelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Name() != name {
			t.Errorf("ChannelByName(%q).Name() = %q", name, ch.Name())
		}
		if err := ch.Environment().Validate(); err != nil {
			t.Errorf("channel %s environment invalid: %v", name, err)
		}
	}
	// The empty name is the pre-channel-dimension default.
	ch, err := ChannelByName("")
	if err != nil {
		t.Fatal(err)
	}
	if ch.Name() != "em" {
		t.Errorf("ChannelByName(\"\") resolved to %q, want em", ch.Name())
	}
	if _, err := ChannelByName("acoustic"); err == nil {
		t.Error("unknown channel accepted")
	}
	// Channels() hands out a copy, not the registry.
	m := Channels()
	delete(m, "em")
	if _, err := ChannelByName("em"); err != nil {
		t.Error("mutating the Channels() copy reached the registry")
	}
}

func TestChannelLaws(t *testing.T) {
	if law := Channels()["em"].Law(); law != emsim.LawNearFar {
		t.Errorf("em law = %v, want LawNearFar", law)
	}
	for _, name := range []string{"power", "impedance"} {
		if law := Channels()[name].Law(); law != emsim.LawFlat {
			t.Errorf("%s law = %v, want LawFlat", name, law)
		}
	}
}

// TestChannelEMIdentity pins the redesign's compatibility contract: the
// "em" channel is a pure identity on every case-study machine, so the
// channel seam cannot perturb pre-existing EM measurements.
func TestChannelEMIdentity(t *testing.T) {
	em := Channels()["em"]
	for _, mc := range CaseStudyMachines() {
		if got := em.Apply(mc); !reflect.DeepEqual(got, mc) {
			t.Errorf("em.Apply(%s) is not the identity", mc.Name)
		}
	}
}

// TestChannelConfigsValidate runs every channel over every machine and
// requires the result to be a valid machine configuration.
func TestChannelConfigsValidate(t *testing.T) {
	for _, ch := range Channels() {
		for _, mc := range CaseStudyMachines() {
			out := ch.Apply(mc)
			if err := out.Validate(); err != nil {
				t.Errorf("%s.Apply(%s): %v", ch.Name(), mc.Name, err)
			}
		}
	}
}

// TestChannelApplyComposesSourceEdits is the regression test for the
// clobbering bug: the original power-channel rewrite rebuilt the
// source table from scratch, silently dropping machine-specific
// customizations (the Turion divider's off-chip coherence group, the
// per-machine bus-write geometry angles). Apply must compose with those edits — only the coupling
// magnitudes are the channel's business.
func TestChannelApplyComposesSourceEdits(t *testing.T) {
	for _, name := range []string{"power", "impedance"} {
		ch := Channels()[name]

		// The stock machine-specific edits must survive.
		tu := ch.Apply(TurionX2())
		if g := tu.Sources[activity.Div].Group; g != emsim.GroupOffchip {
			t.Errorf("%s: Turion Div group %d, want GroupOffchip — machine edit clobbered", name, g)
		}
		if a := tu.Sources[activity.Div].Angle; a != 0.45 {
			t.Errorf("%s: Turion Div angle %g, want 0.45", name, a)
		}
		if a := tu.Sources[activity.BusWr].Angle; a != 1.4 {
			t.Errorf("%s: Turion BusWr angle %g, want 1.4", name, a)
		}
		c2 := ch.Apply(Core2Duo())
		if a := c2.Sources[activity.BusWr].Angle; a != 0.25 {
			t.Errorf("%s: Core2Duo BusWr angle %g, want 0.25", name, a)
		}

		// So must arbitrary caller customizations.
		mc := Core2Duo()
		mc.Sources[activity.ALU].Group = emsim.GroupOffchip
		mc.Sources[activity.ALU].Angle = 1.23
		out := ch.Apply(mc)
		if out.Sources[activity.ALU].Group != emsim.GroupOffchip || out.Sources[activity.ALU].Angle != 1.23 {
			t.Errorf("%s: caller source edit clobbered: %+v", name, out.Sources[activity.ALU])
		}
		// While the magnitudes are fully the channel's.
		for _, c := range activity.Components() {
			s := out.Sources[c]
			if s.Near != 0 || s.Far != 0 {
				t.Errorf("%s: %v keeps distance-dependent coupling %+v", name, c, s)
			}
			if s.Diffuse <= 0 {
				t.Errorf("%s: %v has no conducted coupling", name, c)
			}
		}
		// And the base config is never mutated.
		if mc.Sources[activity.Fetch].Diffuse != 0 {
			t.Errorf("%s: Apply mutated the base config", name)
		}
	}
}
