// Command ladnet runs the full spatial pipeline end to end on one
// deployed sensor network: HELLO protocol (optionally under attack, with
// optional defenses), beaconless localization, LAD detection. It is the
// "see the whole system move" demo; the figure reproductions use the
// faster analytic observation model (see README, "Analytic observation
// model").
//
//	ladnet                         # benign run
//	ladnet -attack silence -frac 0.2
//	ladnet -attack flood -auth     # multi-impersonation vs pairwise MACs
//	ladnet -attack wormhole -leash # range-change vs packet leashes
//
// A flag value outside its range is a usage error: ladnet prints it and
// exits 2 before deploying anything.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/attack"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/rng"
	"repro/internal/wsn"
)

// maxGroupSize bounds -m. The HELLO round's work grows with the square
// of m: the paper's m = 300 (30,000 sensors) runs in about 5 s on a
// 2-vCPU host, and m = 1000 ran for over a minute.
const maxGroupSize = 500

// maxVictims bounds -victims at the largest network -m allows (100
// groups of maxGroupSize): a run never checks more sensors than that.
const maxVictims = 100 * maxGroupSize

// errUsage marks a flag value ladnet refuses; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "ladnet: %v\n", err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run parses args, deploys the network, runs the HELLO round under the
// selected attack and defenses, and writes the detection report to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ladnet", flag.ContinueOnError)
	var (
		m        = fs.Int("m", 60, "nodes per deployment group")
		seed     = fs.Uint64("seed", 1, "deployment seed")
		attackT  = fs.String("attack", "none", "none|silence|impersonate|flood|wormhole")
		frac     = fs.Float64("frac", 0.10, "fraction of nodes compromised (silence/impersonate/flood)")
		useAuth  = fs.Bool("auth", false, "enable pairwise message authentication")
		useLeash = fs.Bool("leash", false, "enable geographic packet leashes (wormhole defense)")
		victims  = fs.Int("victims", 200, "sensors to localize and check")
		mte      = fs.Float64("mte", 60, "maximum tolerable localization error (m)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	switch *attackT {
	case "none", "silence", "impersonate", "flood", "wormhole":
	default:
		return fmt.Errorf("%w: unknown attack %q", errUsage, *attackT)
	}
	switch {
	case !(*frac >= 0 && *frac <= 1): // false for NaN
		return fmt.Errorf("%w: -frac must be in [0, 1]", errUsage)
	case *m < 1 || *m > maxGroupSize:
		return fmt.Errorf("%w: -m must be in [1, %d]", errUsage, maxGroupSize)
	case *victims < 1 || *victims > maxVictims:
		return fmt.Errorf("%w: -victims must be in [1, %d]", errUsage, maxVictims)
	}

	cfg := deploy.PaperConfig()
	cfg.GroupSize = *m
	model, err := deploy.New(cfg)
	if err != nil {
		return err
	}
	master := rng.New(*seed)
	net := wsn.Deploy(model, master.Split())
	fmt.Fprintf(stdout, "deployed %d sensors (%d groups × %d), R=%.0f m, σ=%.0f m\n",
		net.Len(), model.NumGroups(), model.GroupSize(), model.Range(), model.Sigma())

	// Security provisioning (pre-deployment).
	authority := auth.NewAuthority([]byte("network-master-key"))
	for i := 0; i < net.Len(); i++ {
		authority.Provision(int32(i), net.Node(wsn.NodeID(i)).Group)
	}

	// Attacker setup.
	pcfg := wsn.ProtocolConfig{Seed: master.Uint64()}
	behaviors := map[wsn.NodeID]wsn.Behavior{}
	compromised := map[wsn.NodeID]bool{}
	r := master.Split()
	markCompromised := func(share float64, behave func(wsn.Node) []wsn.HelloMsg) {
		count := int(share * float64(net.Len()))
		for _, idx := range r.Perm(net.Len())[:count] {
			id := wsn.NodeID(idx)
			net.MarkCompromised(id)
			compromised[id] = true
			behaviors[id] = behave
		}
	}
	switch *attackT {
	case "none":
	case "silence":
		markCompromised(*frac, attack.Silence())
	case "impersonate":
		markCompromised(*frac, func(n wsn.Node) []wsn.HelloMsg {
			return attack.Impersonate((n.Group + 50) % model.NumGroups())(n)
		})
	case "flood":
		markCompromised(*frac, attack.RandomFlood(30, model.NumGroups(), r))
	case "wormhole":
		wh := attack.NewWormhole(geom.Pt(250, 250), geom.Pt(750, 750), 80)
		pcfg.Tunnels = []wsn.Tunnel{wh}
		fmt.Fprintf(stdout, "wormhole tunnel: %v → %v (radius 80 m)\n", wh.In, wh.Out)
	}
	if len(behaviors) > 0 {
		pcfg.Behaviors = behaviors
		fmt.Fprintf(stdout, "attack %q: %d compromised nodes\n", *attackT, len(behaviors))
	}

	// Defenses. Authentication pins sender→group bindings (kills
	// impersonation/flooding); leashes reject wormhole replays.
	if *useAuth || *useLeash {
		leash := auth.Leash{MaxRange: model.Range(), Slack: 1}
		pcfg.Filter = func(rx wsn.Node, msg wsn.HelloMsg, origin geom.Point) bool {
			if *useAuth {
				if g, ok := authority.ProvisionedGroup(int32(msg.Sender)); !ok || g != msg.ClaimedGroup {
					return false
				}
			}
			if *useLeash && !leash.Check(rx.Pos, origin) {
				return false
			}
			return true
		}
		fmt.Fprintf(stdout, "defenses: auth=%v leash=%v\n", *useAuth, *useLeash)
	}

	// HELLO round.
	obs, err := net.RunHelloProtocol(pcfg)
	if err != nil {
		return err
	}

	// Train LAD on clean simulated deployments (Section 5.5).
	det, _, err := core.Train(model, core.DiffMetric{}, core.TrainConfig{
		Trials: 1500, Percentile: 99, Seed: master.Uint64(), KeepInField: true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained Diff threshold (P99): %.2f\n\n", det.Threshold())

	// Localize and check victims.
	mle := localize.NewBeaconlessModel(model)
	var checked, alarms, anomalies, caught, falseAlarms int
	var errSum float64
	for tries := 0; checked < *victims && tries < net.Len(); tries++ {
		id, _ := net.SampleNode(r)
		node := net.Node(id)
		if compromised[id] || !model.Field().Contains(node.Pos) {
			continue
		}
		le, err := mle.LocalizeObservation(obs[id])
		if err != nil {
			continue
		}
		checked++
		locErr := le.Dist(node.Pos)
		errSum += locErr
		verdict := det.Check(obs[id], le)
		isAnomaly := locErr > *mte
		if isAnomaly {
			anomalies++
		}
		if verdict.Alarm {
			alarms++
			if isAnomaly {
				caught++
			} else {
				falseAlarms++
			}
		}
	}
	if checked == 0 {
		return errors.New("no victims could be localized")
	}
	fmt.Fprintf(stdout, "checked sensors:        %d\n", checked)
	fmt.Fprintf(stdout, "mean localization error: %.1f m (MTE %.0f m)\n", errSum/float64(checked), *mte)
	fmt.Fprintf(stdout, "anomalies (err > MTE):  %d\n", anomalies)
	fmt.Fprintf(stdout, "LAD alarms:             %d (%d caught anomalies, %d false)\n",
		alarms, caught, falseAlarms)
	if anomalies > 0 {
		fmt.Fprintf(stdout, "detection rate:         %.2f\n", float64(caught)/float64(anomalies))
	}
	fmt.Fprintf(stdout, "false positive rate:    %.4f\n", float64(falseAlarms)/float64(checked))

	// The wormhole only corrupts sensors near the tunnel exit — report
	// that cohort explicitly (a random victim sample rarely lands there).
	if *attackT == "wormhole" {
		fmt.Fprintln(stdout, "\nsensors within replay range of the tunnel exit:")
		var cohort, cohortAlarms int
		var cohortErr float64
		net.ForEachWithin(geom.Pt(750, 750), model.Range(), func(id wsn.NodeID) {
			node := net.Node(id)
			le, err := mle.LocalizeObservation(obs[id])
			if err != nil {
				return
			}
			cohort++
			cohortErr += le.Dist(node.Pos)
			if det.Check(obs[id], le).Alarm {
				cohortAlarms++
			}
		})
		if cohort > 0 {
			fmt.Fprintf(stdout, "  cohort size:            %d\n", cohort)
			fmt.Fprintf(stdout, "  mean localization error: %.1f m\n", cohortErr/float64(cohort))
			fmt.Fprintf(stdout, "  LAD alarm rate:          %.2f\n", float64(cohortAlarms)/float64(cohort))
		}
	}
	return nil
}
