package lad

// Integration tests: the full pipeline across package boundaries, on the
// real spatial simulator rather than the analytic observation model. They
// tie together wsn (HELLO protocol), localize (beaconless MLE), attack
// (network-level behaviors), auth (defenses) and core (detection) the way
// a deployment would.

import (
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/rng"
	"repro/internal/wsn"
)

// integrationModel keeps spatial runs affordable: 100 groups × 40 nodes.
func integrationModel(t testing.TB) *deploy.Model {
	t.Helper()
	cfg := deploy.PaperConfig()
	cfg.GroupSize = 40
	m, err := deploy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEndToEndBenignPipeline(t *testing.T) {
	model := integrationModel(t)
	master := rng.New(101)
	net := wsn.Deploy(model, master.Split())

	// Real HELLO protocol round (event-driven, no attacks).
	obs, err := net.RunHelloProtocol(wsn.ProtocolConfig{Seed: master.Uint64()})
	if err != nil {
		t.Fatal(err)
	}

	// Detector trained on the analytic model (as a deployment would be).
	det, _, err := core.Train(model, core.DiffMetric{}, core.TrainConfig{
		Trials: 1200, Percentile: 99, Seed: master.Uint64(), KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Localize and check a sample of real sensors: the false-positive
	// rate on spatial data must be near the 1% training target, which is
	// only true if the analytic model matches the simulator.
	mle := localize.NewBeaconlessModel(model)
	r := master.Split()
	var checked, alarms int
	var errSum float64
	for checked < 400 {
		id, _ := net.SampleNode(r)
		node := net.Node(id)
		if !model.Field().Contains(node.Pos) {
			continue
		}
		le, err := mle.LocalizeObservation(obs[id])
		if err != nil {
			continue
		}
		checked++
		errSum += le.Dist(node.Pos)
		if det.Check(obs[id], le).Alarm {
			alarms++
		}
	}
	fpRate := float64(alarms) / float64(checked)
	if fpRate > 0.05 {
		t.Errorf("spatial false-positive rate = %v, trained for 0.01", fpRate)
	}
	if mean := errSum / float64(checked); mean > 25 {
		t.Errorf("spatial localization error = %.1f m", mean)
	}
}

func TestEndToEndCoordinatedAttackIsDetected(t *testing.T) {
	model := integrationModel(t)
	master := rng.New(202)
	net := wsn.Deploy(model, master.Split())

	det, _, err := core.Train(model, core.DiffMetric{}, core.TrainConfig{
		Trials: 1200, Percentile: 99, Seed: master.Uint64(), KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mle := localize.NewBeaconlessModel(model)

	// Victim near the field center; compromise 15% of its neighborhood
	// with silence+impersonation behaviors, then hand the detection-phase
	// the forged location.
	var victim wsn.NodeID = -1
	net.ForEachWithin(geom.Pt(500, 500), 40, func(id wsn.NodeID) {
		if victim < 0 {
			victim = id
		}
	})
	if victim < 0 {
		t.Fatal("no central victim found")
	}
	r := master.Split()
	compromised := net.CompromiseFraction(victim, 0.15, r)
	la := net.Node(victim).Pos
	le := attack.ForgeLocationInField(la, 150, model.Field(), r, 64)

	// Compromised neighbors impersonate groups that are plausible at the
	// forged location (boosting µ-heavy groups there).
	e := core.NewExpectation(model, le)
	bestGroup := 0
	for g := range e.Mu {
		if e.Mu[g] > e.Mu[bestGroup] {
			bestGroup = g
		}
	}
	behaviors := map[wsn.NodeID]wsn.Behavior{}
	for i, c := range compromised {
		if i%2 == 0 {
			behaviors[c] = attack.Silence()
		} else {
			behaviors[c] = attack.Impersonate(bestGroup)
		}
	}
	obs, err := net.RunHelloProtocol(wsn.ProtocolConfig{Seed: 7, Behaviors: behaviors})
	if err != nil {
		t.Fatal(err)
	}

	verdict := det.Check(obs[victim], le)
	if !verdict.Alarm {
		t.Errorf("coordinated spatial attack not detected: %v", verdict)
	}

	// Control: the honest location with the same tainted observation
	// should NOT alarm (taint is too small to matter at the truth).
	honest, err := mle.LocalizeObservation(obs[victim])
	if err != nil {
		t.Fatal(err)
	}
	if honest.Dist(la) > 60 {
		t.Logf("note: taint displaced the MLE by %.1f m", honest.Dist(la))
	}
}

func TestEndToEndAuthNeutralizesFlooding(t *testing.T) {
	model := integrationModel(t)
	master := rng.New(303)
	net := wsn.Deploy(model, master.Split())

	authority := auth.NewAuthority([]byte("k"))
	for i := 0; i < net.Len(); i++ {
		authority.Provision(int32(i), net.Node(wsn.NodeID(i)).Group)
	}

	// 5% of nodes flood random group claims.
	r := master.Split()
	behaviors := map[wsn.NodeID]wsn.Behavior{}
	for _, idx := range r.Perm(net.Len())[:net.Len()/20] {
		behaviors[wsn.NodeID(idx)] = attack.RandomFlood(20, model.NumGroups(), r)
	}
	filter := func(rx wsn.Node, msg wsn.HelloMsg, origin geom.Point) bool {
		g, ok := authority.ProvisionedGroup(int32(msg.Sender))
		return ok && g == msg.ClaimedGroup
	}
	clean, err := net.RunHelloProtocol(wsn.ProtocolConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flooded, err := net.RunHelloProtocol(wsn.ProtocolConfig{Seed: 1, Behaviors: behaviors})
	if err != nil {
		t.Fatal(err)
	}
	defended, err := net.RunHelloProtocol(wsn.ProtocolConfig{Seed: 1, Behaviors: behaviors, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}

	var cleanN, floodedN, defendedN int
	for id := range clean {
		for g := range clean[id] {
			cleanN += clean[id][g]
			floodedN += flooded[id][g]
			defendedN += defended[id][g]
		}
	}
	if floodedN <= cleanN {
		t.Error("flooding should inflate observations")
	}
	// Authentication removes all forged claims; the only residual
	// difference is the flooders' withheld honest HELLOs.
	if defendedN > cleanN {
		t.Errorf("auth left forged observations: %d > %d", defendedN, cleanN)
	}
	if float64(cleanN-defendedN)/float64(cleanN) > 0.1 {
		t.Errorf("auth over-filtered: clean %d vs defended %d", cleanN, defendedN)
	}
}

func TestAnalyticAndSpatialScoreDistributionsAgree(t *testing.T) {
	// The harness's binomial fast path and the spatial simulator must
	// produce statistically compatible benign Diff scores — the contract
	// README's "Analytic observation model" states.
	model := integrationModel(t)
	master := rng.New(404)
	metric := core.DiffMetric{}
	mle := localize.NewBeaconlessModel(model)

	// Spatial sample.
	net := wsn.Deploy(model, master.Split())
	r := master.Split()
	var spatial []float64
	for len(spatial) < 250 {
		id, _ := net.SampleNode(r)
		node := net.Node(id)
		if !model.Field().Contains(node.Pos) {
			continue
		}
		o := net.ObservationOf(id)
		le, err := mle.LocalizeObservation(o)
		if err != nil {
			continue
		}
		spatial = append(spatial, metric.Score(o, core.NewExpectation(model, le)))
	}

	// Analytic sample.
	analytic, err := core.BenignScores(model, []core.Metric{metric}, core.TrainConfig{
		Trials: 1000, Percentile: 99, Seed: master.Uint64(), KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	meanOf := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	ms, ma := meanOf(spatial), meanOf(analytic[0])
	if math.Abs(ms-ma)/ma > 0.15 {
		t.Errorf("spatial mean score %v vs analytic %v: >15%% apart", ms, ma)
	}
}
