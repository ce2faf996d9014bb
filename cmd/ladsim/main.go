// Command ladsim reproduces the LAD paper's evaluation figures.
//
// Usage:
//
//	ladsim -figure fig7                 # one experiment, paper fidelity
//	ladsim -figure all -quick           # everything, smoke fidelity
//	ladsim -figure fig4 -csv out/       # also write CSV per panel
//
// Valid figure ids: fig4 fig5 fig6 fig7 fig8 fig9 mismatch correct omega
// schemes layouts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
)

func main() {
	var (
		figure = flag.String("figure", "all", "experiment id or 'all'")
		quick  = flag.Bool("quick", false, "reduced trial counts (fast smoke run)")
		benign = flag.Int("benign", 0, "override benign trials per configuration")
		epoch  = flag.Int("sim-epoch", 0, "simulation epoch for benign trials: 1 = bit-identical reference, 2 = fast table-sampler path (distribution-level equivalent); 0 keeps the preset default (2 at full fidelity, 1 with -quick)")
		att    = flag.Int("attack", 0, "override attacked trials per point")
		seed   = flag.Uint64("seed", 0, "override master seed")
		csvDir = flag.String("csv", "", "directory to write per-panel CSV files")
		width  = flag.Int("width", 68, "chart width (characters)")
		height = flag.Int("height", 16, "chart height (characters)")
	)
	flag.Parse()

	opts := lad.DefaultFigureOptions()
	if *quick {
		opts = lad.QuickFigureOptions()
	}
	if *benign > 0 {
		opts.BenignTrials = *benign
	}
	if *att > 0 {
		opts.AttackTrials = *att
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *epoch != 0 {
		// 0 keeps the selected preset's epoch (full fidelity defaults to
		// the fast epoch-2 sampler, -quick to the epoch-1 reference);
		// -sim-epoch 1 forces the bit-identical reference path.
		opts.SimEpoch = *epoch
	}

	ids := []string{*figure}
	if *figure == "all" {
		ids = lad.FigureNames()
	}

	for _, id := range ids {
		start := time.Now()
		figs, err := lad.RunFigure(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladsim: %v\n", err)
			os.Exit(1)
		}
		for pi, f := range figs {
			fmt.Println(lad.RenderFigure(f, *width, *height))
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "ladsim: %v\n", err)
					os.Exit(1)
				}
				name := filepath.Join(*csvDir, fmt.Sprintf("%s_panel%d.csv", id, pi+1))
				if err := os.WriteFile(name, []byte(lad.FigureCSV(f)), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "ladsim: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", name)
			}
		}
		fmt.Printf("[%s done in %s; benign=%d attack=%d seed=%d]\n\n",
			id, time.Since(start).Round(time.Millisecond),
			opts.BenignTrials, opts.AttackTrials, opts.Seed)
	}
}
