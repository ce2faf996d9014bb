package attack

import (
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/wsn"
)

// Silence returns the silence-attack behavior (Figure 3a): the
// compromised node broadcasts nothing, decreasing the victim's
// observation of the node's group by one.
func Silence() wsn.Behavior {
	return func(wsn.Node) []wsn.HelloMsg { return nil }
}

// Impersonate returns the impersonation behavior (Figure 3b): the node
// claims membership of fakeGroup instead of its true group.
func Impersonate(fakeGroup int) wsn.Behavior {
	return func(n wsn.Node) []wsn.HelloMsg {
		return []wsn.HelloMsg{{Sender: n.ID, ClaimedGroup: fakeGroup}}
	}
}

// MultiImpersonate returns the multi-impersonation behavior (Figure 3c):
// without pairwise authentication a compromised node can emit arbitrarily
// many messages claiming arbitrary groups.
func MultiImpersonate(groups []int) wsn.Behavior {
	claimed := append([]int(nil), groups...)
	return func(n wsn.Node) []wsn.HelloMsg {
		msgs := make([]wsn.HelloMsg, len(claimed))
		for i, g := range claimed {
			msgs[i] = wsn.HelloMsg{Sender: n.ID, ClaimedGroup: g}
		}
		return msgs
	}
}

// RandomFlood is MultiImpersonate with k uniformly random group claims.
func RandomFlood(k, numGroups int, r *rng.Rand) wsn.Behavior {
	groups := make([]int, k)
	for i := range groups {
		groups[i] = r.Intn(numGroups)
	}
	return MultiImpersonate(groups)
}

// NewWormhole builds the tunnel variant of the range-change attack
// (ref [15]): packets overheard within radius of in are replayed at out.
// The returned value plugs into wsn.ProtocolConfig.Tunnels.
func NewWormhole(in, out geom.Point, radius float64) wsn.Tunnel {
	return wsn.Tunnel{In: in, Out: out, Radius: radius}
}
