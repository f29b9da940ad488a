package machine

import (
	"strings"
	"testing"

	"repro/internal/activity"
	"repro/internal/asm"
	"repro/internal/isa"
)

func TestCaseStudyConfigsValid(t *testing.T) {
	machines := CaseStudyMachines()
	if len(machines) != 3 {
		t.Fatalf("expected 3 case-study machines, got %d", len(machines))
	}
	for _, cfg := range machines {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if err := cfg.Sources.Validate(); err != nil {
			t.Errorf("%s sources: %v", cfg.Name, err)
		}
	}
}

// Figure 6 cache geometries, verbatim.
func TestFigure6Geometries(t *testing.T) {
	cases := []struct {
		cfg           Config
		l1Size, l1Way int
		l2Size, l2Way int
	}{
		{Core2Duo(), 32 << 10, 8, 4 << 20, 16},
		{Pentium3M(), 16 << 10, 4, 512 << 10, 8},
		{TurionX2(), 64 << 10, 2, 1 << 20, 16},
	}
	for _, c := range cases {
		if c.cfg.Mem.L1.SizeBytes != c.l1Size || c.cfg.Mem.L1.Assoc != c.l1Way {
			t.Errorf("%s L1 = %d/%d-way, want %d/%d-way",
				c.cfg.Name, c.cfg.Mem.L1.SizeBytes, c.cfg.Mem.L1.Assoc, c.l1Size, c.l1Way)
		}
		if c.cfg.Mem.L2.SizeBytes != c.l2Size || c.cfg.Mem.L2.Assoc != c.l2Way {
			t.Errorf("%s L2 = %d/%d-way, want %d/%d-way",
				c.cfg.Name, c.cfg.Mem.L2.SizeBytes, c.cfg.Mem.L2.Assoc, c.l2Size, c.l2Way)
		}
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range []string{"Core2Duo", "Pentium3M", "TurionX2"} {
		cfg, err := ConfigByName(name)
		if err != nil || cfg.Name != name {
			t.Errorf("ConfigByName(%q) = %v, %v", name, cfg.Name, err)
		}
	}
	if _, err := ConfigByName("PDP11"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown machine: err = %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cfg := Core2Duo()
	cfg.Name = ""
	if err := cfg.Validate(); err == nil {
		t.Error("empty name should fail")
	}
	cfg = Core2Duo()
	cfg.ClockHz = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero clock should fail")
	}
	cfg = Core2Duo()
	cfg.CPU.DivCycles = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad CPU config should fail")
	}
	cfg = Core2Duo()
	cfg.AsymmetrySourceAmp = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative asymmetry should fail")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with zero config should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(Config{})
}

func TestRunSimpleProgram(t *testing.T) {
	m := MustNew(Core2Duo())
	prog, err := asm.Assemble(`
		movi r1, 6
		movi r2, 7
		mul  r3, r1, r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog.Instructions, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Error("program should halt")
	}
	if got := res.CPU.Reg(3); got != 42 {
		t.Errorf("r3 = %d, want 42", got)
	}
	if res.Retired != 4 {
		t.Errorf("retired = %d", res.Retired)
	}
}

// A two-phase loop: the runner must produce alternating phase samples
// whose activity reflects each phase's instructions.
func TestRunPhases(t *testing.T) {
	m := MustNew(Core2Duo())
	prog, err := asm.Assemble(`
		movi r1, 0
		movi r2, 100
	phaseA:
		muli r3, r3, 3
		muli r3, r3, 3
		nop
	phaseB:
		addi r4, r4, 1
		addi r4, r4, 1
		nop
		jmp  phaseA
	`)
	if err != nil {
		t.Fatal(err)
	}
	pa := int(prog.Symbols["phaseA"])
	pb := int(prog.Symbols["phaseB"])
	res, err := m.RunPhases(prog.Instructions, map[int]int{pa: 0, pb: 1},
		RunOptions{MaxSamples: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 21 {
		t.Fatalf("got %d samples, want 21", len(res.Samples))
	}
	for i, s := range res.Samples {
		wantID := i % 2
		if s.ID != wantID {
			t.Fatalf("sample %d has ID %d, want %d", i, s.ID, wantID)
		}
		if s.Cycles() == 0 {
			t.Fatalf("sample %d has zero duration", i)
		}
		if wantID == 0 {
			wantMul := 2 * m.Config().CPU.MulEvents
			if s.Activity[activity.Mul] != wantMul {
				t.Errorf("phase A sample %d mul events = %v, want %v", i, s.Activity[activity.Mul], wantMul)
			}
			if s.Activity[activity.ALU] != 0 {
				t.Errorf("phase A sample %d has ALU events %v", i, s.Activity[activity.ALU])
			}
		} else {
			if s.Activity[activity.ALU] != 2 {
				t.Errorf("phase B sample %d alu events = %v, want 2", i, s.Activity[activity.ALU])
			}
			if s.Activity[activity.Mul] != 0 {
				t.Errorf("phase B sample %d has Mul events %v", i, s.Activity[activity.Mul])
			}
		}
	}
	// Contiguity: each sample starts where the previous ended.
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].StartCycle != res.Samples[i-1].EndCycle {
			t.Fatalf("sample %d not contiguous", i)
		}
	}
}

func TestRunPhasesMaxCycles(t *testing.T) {
	m := MustNew(Core2Duo())
	prog, err := asm.Assemble("loop: jmp loop")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunPhases(prog.Instructions, nil, RunOptions{MaxCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 1000 || res.Cycles > 1010 {
		t.Errorf("cycles = %d, want ≈1000", res.Cycles)
	}
	if res.Halted {
		t.Error("infinite loop should not halt")
	}
}

func TestRunPhasesError(t *testing.T) {
	m := MustNew(Core2Duo())
	// Program that runs off the end.
	if _, err := m.Run([]isa.Instruction{{Op: isa.NOP}}, 100); err == nil {
		t.Error("PC overrun should propagate")
	}
}

// The three machines must differ in the ways the paper's analysis relies
// on: divider latency ordering and L2 capacities.
func TestMachineDifferences(t *testing.T) {
	c2, p3, tu := Core2Duo(), Pentium3M(), TurionX2()
	if !(c2.CPU.DivCycles < p3.CPU.DivCycles && p3.CPU.DivCycles <= tu.CPU.DivCycles) {
		t.Error("divider latency should be Core2 < P3M <= Turion")
	}
	if !(p3.Mem.L2.SizeBytes < tu.Mem.L2.SizeBytes && tu.Mem.L2.SizeBytes < c2.Mem.L2.SizeBytes) {
		t.Error("L2 sizes should be P3M < Turion < Core2")
	}
	if !(c2.Sources[activity.Div].Near < p3.Sources[activity.Div].Near &&
		p3.Sources[activity.Div].Near < tu.Sources[activity.Div].Near) {
		t.Error("divider coupling should grow Core2 < P3M < Turion")
	}
}

func TestPowerChannel(t *testing.T) {
	mc := Core2Duo()
	power := Channels()["power"]
	pc := power.Apply(mc)
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
	if pc.Name != "Core2Duo-power" {
		t.Errorf("power channel name %q", pc.Name)
	}
	// Every component couples, and only through distance-flat terms.
	for _, c := range activity.Components() {
		s := pc.Sources[c]
		if s.Diffuse <= 0 {
			t.Errorf("%v has no power coupling", c)
		}
		if s.Near != 0 || s.Far != 0 {
			t.Errorf("%v has distance-dependent power coupling %+v", c, s)
		}
	}
	// The base machine must be untouched.
	if mc.Sources[activity.ALU].Diffuse != 0 {
		t.Error("the power channel mutated the base config")
	}
	if err := power.Environment().Validate(); err != nil {
		t.Fatal(err)
	}
}
