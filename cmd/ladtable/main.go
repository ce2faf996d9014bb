// Command ladtable inspects the deployment-knowledge primitives:
//
//	ladtable            # print the g(z) lookup table (Theorem 1)
//	ladtable -grid      # deployment-point grid of Figure 1
//	ladtable -pdf       # one group's Gaussian pdf samples (Figure 2)
//
// The table's accuracy against ω is the omega figure of cmd/ladsim
// (ladsim -figure omega). A flag value outside its range is a usage
// error: ladtable prints it and exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/plot"
)

// maxSize bounds -omega and the number of printed rows, so neither a
// huge -omega nor a tiny -step can exhaust memory.
const maxSize = 1 << 20

// errUsage marks a flag value ladtable refuses; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "ladtable: %v\n", err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run parses args and writes the selected table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ladtable", flag.ContinueOnError)
	var (
		r     = fs.Float64("R", 50, "transmission range (m)")
		sigma = fs.Float64("sigma", 50, "deployment spread σ (m)")
		omega = fs.Int("omega", deploy.DefaultOmega, "table sub-ranges ω")
		step  = fs.Float64("step", 10, "z step for table printing (m)")
		grid  = fs.Bool("grid", false, "print the Figure 1 deployment grid")
		pdf   = fs.Bool("pdf", false, "print Figure 2 pdf samples")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	inExtent := func(v float64) bool { return v > 0 && v <= deploy.MaxExtent } // false for NaN
	switch {
	case !inExtent(*r):
		return fmt.Errorf("%w: -R must be in (0, %g] m", errUsage, deploy.MaxExtent)
	case !inExtent(*sigma):
		return fmt.Errorf("%w: -sigma must be in (0, %g] m", errUsage, deploy.MaxExtent)
	case *omega < 1 || *omega > maxSize:
		return fmt.Errorf("%w: -omega must be in [1, %d]", errUsage, maxSize)
	case !(*step > 0) || math.IsInf(*step, 1):
		return fmt.Errorf("%w: -step must be positive and finite", errUsage)
	}

	switch {
	case *grid:
		return printGrid(stdout)
	case *pdf:
		return printPDF(stdout, *sigma)
	default:
		return printTable(stdout, *r, *sigma, *omega, *step)
	}
}

func printGrid(w io.Writer) error {
	model, err := deploy.New(deploy.PaperConfig())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1 — deployment points (10×10 grid, 1000 m × 1000 m):")
	var rows [][]string
	for i, p := range model.DeploymentPoints() {
		if i%10 == 0 {
			rows = append(rows, []string{})
		}
		rows[len(rows)-1] = append(rows[len(rows)-1], fmt.Sprintf("(%.0f,%.0f)", p.X, p.Y))
	}
	for i := len(rows) - 1; i >= 0; i-- { // print north at the top
		for _, c := range rows[i] {
			fmt.Fprintf(w, "%-11s", c)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func printPDF(w io.Writer, sigma float64) error {
	cfg := deploy.PaperConfig()
	cfg.Sigma = sigma
	model, err := deploy.New(cfg)
	if err != nil {
		return err
	}
	// Figure 2 samples the pdf around deployment point (150, 150) = group 11.
	const group = 11
	dp := model.DeploymentPoint(group)
	fmt.Fprintf(w, "Figure 2 — deployment pdf around %v (σ=%.0f):\n", dp, sigma)
	header := []string{"dy\\dx"}
	for dx := -150.0; dx <= 150; dx += 50 {
		header = append(header, fmt.Sprintf("%.0f", dx))
	}
	var rows [][]string
	for dy := 150.0; dy >= -150; dy -= 50 {
		row := []string{fmt.Sprintf("%.0f", dy)}
		for dx := -150.0; dx <= 150; dx += 50 {
			v := model.PDF(group, geom.Pt(dp.X+dx, dp.Y+dy))
			row = append(row, fmt.Sprintf("%.2e", v))
		}
		rows = append(rows, row)
	}
	fmt.Fprint(w, plot.Table(header, rows))
	return nil
}

func printTable(w io.Writer, r, sigma float64, omega int, step float64) error {
	gt := deploy.NewGTable(r, sigma, omega)
	if gt.MaxZ()/step > maxSize {
		return fmt.Errorf("%w: -step %g prints more than %d rows up to z = %.0f m", errUsage, step, maxSize, gt.MaxZ())
	}
	fmt.Fprintf(w, "g(z) — probability a group member lands within R=%.0f of a point\n", r)
	fmt.Fprintf(w, "z meters from the deployment point (σ=%.0f, ω=%d, zero beyond %.0f):\n",
		sigma, omega, gt.MaxZ())
	var rows [][]string
	for z := 0.0; z <= gt.MaxZ(); z += step {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", z),
			fmt.Sprintf("%.6f", gt.Eval(z)),
			fmt.Sprintf("%.6f", deploy.GExact(z, r, sigma)),
		})
	}
	fmt.Fprint(w, plot.Table([]string{"z", "g(z) table", "g(z) exact"}, rows))
	return nil
}
