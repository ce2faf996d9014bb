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
package main

import (
	"flag"
	"fmt"
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

func main() {
	var (
		m        = flag.Int("m", 60, "nodes per deployment group")
		seed     = flag.Uint64("seed", 1, "deployment seed")
		attackT  = flag.String("attack", "none", "none|silence|impersonate|flood|wormhole")
		frac     = flag.Float64("frac", 0.10, "fraction of nodes compromised (silence/impersonate/flood)")
		useAuth  = flag.Bool("auth", false, "enable pairwise message authentication")
		useLeash = flag.Bool("leash", false, "enable geographic packet leashes (wormhole defense)")
		victims  = flag.Int("victims", 200, "sensors to localize and check")
		mte      = flag.Float64("mte", 60, "maximum tolerable localization error (m)")
	)
	flag.Parse()

	cfg := deploy.PaperConfig()
	cfg.GroupSize = *m
	model, err := deploy.New(cfg)
	if err != nil {
		fail(err)
	}
	master := rng.New(*seed)
	net := wsn.Deploy(model, master.Split())
	fmt.Printf("deployed %d sensors (%d groups × %d), R=%.0f m, σ=%.0f m\n",
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
		fmt.Printf("wormhole tunnel: %v → %v (radius 80 m)\n", wh.In, wh.Out)
	default:
		fail(fmt.Errorf("unknown attack %q", *attackT))
	}
	if len(behaviors) > 0 {
		pcfg.Behaviors = behaviors
		fmt.Printf("attack %q: %d compromised nodes\n", *attackT, len(behaviors))
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
		fmt.Printf("defenses: auth=%v leash=%v\n", *useAuth, *useLeash)
	}

	// HELLO round.
	obs, err := net.RunHelloProtocol(pcfg)
	if err != nil {
		fail(err)
	}

	// Train LAD on clean simulated deployments (Section 5.5).
	det, _, err := core.Train(model, core.DiffMetric{}, core.TrainConfig{
		Trials: 1500, Percentile: 99, Seed: master.Uint64(), KeepInField: true,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("trained Diff threshold (P99): %.2f\n\n", det.Threshold())

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
		fail(fmt.Errorf("no victims could be localized"))
	}
	fmt.Printf("checked sensors:        %d\n", checked)
	fmt.Printf("mean localization error: %.1f m (MTE %.0f m)\n", errSum/float64(checked), *mte)
	fmt.Printf("anomalies (err > MTE):  %d\n", anomalies)
	fmt.Printf("LAD alarms:             %d (%d caught anomalies, %d false)\n",
		alarms, caught, falseAlarms)
	if anomalies > 0 {
		fmt.Printf("detection rate:         %.2f\n", float64(caught)/float64(anomalies))
	}
	fmt.Printf("false positive rate:    %.4f\n", float64(falseAlarms)/float64(checked))

	// The wormhole only corrupts sensors near the tunnel exit — report
	// that cohort explicitly (a random victim sample rarely lands there).
	if *attackT == "wormhole" {
		fmt.Println("\nsensors within replay range of the tunnel exit:")
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
			fmt.Printf("  cohort size:            %d\n", cohort)
			fmt.Printf("  mean localization error: %.1f m\n", cohortErr/float64(cohort))
			fmt.Printf("  LAD alarm rate:          %.2f\n", float64(cohortAlarms)/float64(cohort))
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ladnet: %v\n", err)
	os.Exit(1)
}
