// Command savatsim runs an SVX32 assembly program on one of the simulated
// case-study machines and reports architectural state, cache behaviour,
// and the per-component activity that would drive the EM model — useful
// for understanding what a kernel radiates before measuring it.
//
//	savatsim prog.s
//	savatsim -machine TurionX2 -max-steps 2000000 prog.s
//	echo 'movi r1, 6
//	muli r1, r1, 7
//	halt' | savatsim
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/activity"
	"repro/internal/asm"
	"repro/internal/cliconf"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memhier"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "savatsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cf       = cliconf.Register(flag.CommandLine, cliconf.Machine)
		maxSteps = flag.Uint64("max-steps", 10_000_000, "instruction budget")
		regs     = flag.Bool("regs", true, "print final register state")
	)
	flag.Parse()

	src, err := readInput(flag.Arg(0))
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	spec, err := cf.CampaignSpec()
	if err != nil {
		return err
	}
	mc, err := spec.MachineConfig()
	if err != nil {
		return err
	}

	hier, err := memhier.New(mc.Mem)
	if err != nil {
		return err
	}
	core, err := cpu.New(mc.CPU, prog.Instructions, hier)
	if err != nil {
		return err
	}
	if _, err := core.Run(*maxSteps); err != nil {
		return err
	}

	fmt.Printf("machine:   %s (%.1f GHz)\n", mc.Name, mc.ClockHz/1e9)
	fmt.Printf("halted:    %v\n", core.Halted())
	fmt.Printf("retired:   %d instructions in %d cycles (CPI %.2f, %.1f µs simulated)\n",
		core.Retired(), core.Cycle(),
		float64(core.Cycle())/float64(core.Retired()),
		float64(core.Cycle())/mc.ClockHz*1e6)
	fmt.Printf("branches:  %d mispredicted\n", core.Mispredicts())

	l1, l2, mem := hier.ServiceCounts()
	fmt.Printf("memory:    %d L1 hits, %d L2 hits, %d memory accesses\n", l1, l2, mem)
	fmt.Printf("L1:        %.1f%% miss rate\n", hier.L1().Stats().MissRate()*100)
	fmt.Printf("L2:        %.1f%% miss rate\n", hier.L2().Stats().MissRate()*100)
	if f, m := hier.WCStats(); f+m > 0 {
		fmt.Printf("wc buffer: %d flushes, %d merged stores\n", f, m)
	}
	fmt.Printf("dram:      %.0f%% row-buffer hit rate\n", hier.DRAM().Stats().RowHitRate()*100)

	v := core.TakeActivity()
	fmt.Println("\nactivity events (what the EM model radiates):")
	for _, c := range activity.Components() {
		if v[c] > 0 {
			fmt.Printf("  %-7s %12.0f\n", c, v[c])
		}
	}

	if *regs {
		fmt.Println("\nregisters:")
		for r := 0; r < isa.NumRegs; r++ {
			v := core.Reg(isa.Reg(r))
			fmt.Printf("  r%-2d = %10d (%#08x)", r, v, v)
			if r%2 == 1 {
				fmt.Println()
			} else {
				fmt.Print("   ")
			}
		}
	}
	return nil
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
