package attack

import (
	"math"
	"testing"

	"repro/internal/auth"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/wsn"
)

func testNet(seed uint64) *wsn.Network {
	cfg := deploy.Config{
		Field:     geom.NewRect(geom.Pt(0, 0), geom.Pt(400, 400)),
		GroupsX:   4,
		GroupsY:   4,
		GroupSize: 40,
		Sigma:     50,
		Range:     50,
		Layout:    deploy.LayoutGrid,
	}
	return wsn.Deploy(deploy.MustNew(cfg), rng.New(seed))
}

func TestSilenceBehavior(t *testing.T) {
	if msgs := Silence()(wsn.Node{ID: 1, Group: 2}); msgs != nil {
		t.Errorf("silence should emit nothing, got %v", msgs)
	}
}

func TestImpersonateBehavior(t *testing.T) {
	msgs := Impersonate(7)(wsn.Node{ID: 1, Group: 2})
	if len(msgs) != 1 || msgs[0].ClaimedGroup != 7 || msgs[0].Sender != 1 {
		t.Errorf("msgs = %v", msgs)
	}
}

func TestMultiImpersonateBehavior(t *testing.T) {
	groups := []int{0, 3, 3, 9}
	b := MultiImpersonate(groups)
	groups[0] = 99 // behavior must have copied
	msgs := b(wsn.Node{ID: 5, Group: 1})
	if len(msgs) != 4 {
		t.Fatalf("len = %d", len(msgs))
	}
	if msgs[0].ClaimedGroup != 0 {
		t.Error("MultiImpersonate aliases caller slice")
	}
}

func TestRandomFlood(t *testing.T) {
	b := RandomFlood(50, 16, rng.New(1))
	msgs := b(wsn.Node{ID: 2})
	if len(msgs) != 50 {
		t.Fatalf("len = %d", len(msgs))
	}
	for _, m := range msgs {
		if m.ClaimedGroup < 0 || m.ClaimedGroup >= 16 {
			t.Fatalf("claimed group out of range: %d", m.ClaimedGroup)
		}
	}
}

func TestWormholeReplaysAndLeashBlocks(t *testing.T) {
	net := testNet(3)
	// Tunnel from one corner region to the opposite corner.
	in, out := geom.Pt(80, 80), geom.Pt(320, 320)
	tunnel := NewWormhole(in, out, 40)

	// Count nodes near the tunnel entrance: their HELLOs get replayed.
	var nearIn int
	net.ForEachWithin(in, 40, func(wsn.NodeID) { nearIn++ })
	if nearIn == 0 {
		t.Skip("no nodes near tunnel entrance in this draw")
	}

	// Pick a receiver near the exit.
	var rx wsn.NodeID = -1
	net.ForEachWithin(out, 20, func(id wsn.NodeID) {
		if rx < 0 {
			rx = id
		}
	})
	if rx < 0 {
		t.Skip("no node near tunnel exit")
	}

	base, err := net.RunHelloProtocol(wsn.ProtocolConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	wormed, err := net.RunHelloProtocol(wsn.ProtocolConfig{
		Seed:    4,
		Tunnels: []wsn.Tunnel{tunnel},
	})
	if err != nil {
		t.Fatal(err)
	}
	totalBase, totalWormed := 0, 0
	for g := range base[rx] {
		totalBase += base[rx][g]
		totalWormed += wormed[rx][g]
	}
	if totalWormed <= totalBase {
		t.Errorf("wormhole added no observations: %d vs %d", totalWormed, totalBase)
	}

	// Geographic packet leash: claimed origins near the entrance are far
	// from the receiver, so every replayed packet is dropped.
	leash := auth.Leash{MaxRange: net.Model().Range(), Slack: 1}
	filter := func(rxNode wsn.Node, msg wsn.HelloMsg, origin geom.Point) bool {
		return leash.Check(rxNode.Pos, origin)
	}
	leashed, err := net.RunHelloProtocol(wsn.ProtocolConfig{
		Seed:    4,
		Tunnels: []wsn.Tunnel{tunnel},
		Filter:  filter,
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := range base[rx] {
		if leashed[rx][g] != base[rx][g] {
			t.Errorf("group %d: leashed %d, baseline %d", g, leashed[rx][g], base[rx][g])
		}
	}
}

func TestForgeLocation(t *testing.T) {
	r := rng.New(5)
	la := geom.Pt(100, 200)
	seenQuads := map[[2]bool]bool{}
	for i := 0; i < 200; i++ {
		le := ForgeLocation(la, 80, r)
		if math.Abs(le.Dist(la)-80) > 1e-9 {
			t.Fatalf("forged distance = %v, want 80", le.Dist(la))
		}
		seenQuads[[2]bool{le.X > la.X, le.Y > la.Y}] = true
	}
	if len(seenQuads) < 4 {
		t.Error("forged directions not covering all quadrants")
	}
}

func TestForgeLocationInField(t *testing.T) {
	r := rng.New(6)
	field := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	// Corner point: many draws fall outside; retries must land inside.
	la := geom.Pt(5, 5)
	for i := 0; i < 100; i++ {
		le := ForgeLocationInField(la, 120, field, r, 64)
		if !field.Contains(le) {
			t.Fatalf("forged location %v outside field", le)
		}
	}
	// Impossible geometry falls back to clamping.
	tiny := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	le := ForgeLocationInField(geom.Pt(5, 5), 500, tiny, r, 8)
	if !tiny.Contains(le) {
		t.Errorf("clamped fallback escaped the field: %v", le)
	}
}
