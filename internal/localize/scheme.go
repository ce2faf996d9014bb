// Package localize implements the localization schemes the LAD paper
// builds on and compares against.
//
// The paper's evaluation (Section 7.2) pairs LAD with the beaconless
// scheme of Fang, Du and Ning (INFOCOM 2005, the paper's ref [8]):
// maximum-likelihood location estimation from the observed per-group
// neighbor counts and the deployment knowledge. That scheme is the
// centerpiece here (Beaconless).
//
// The related-work baselines — MMSE multilateration, Min-Max, DV-Hop and
// Amorphous — are implemented so that LAD's claim of being
// localization-scheme independent can actually be exercised: the
// `schemes` figure (experiment.SchemeSensitivity) runs LAD over each of
// them, and examples/dvhop_attack attacks DV-Hop.
package localize

import (
	"errors"

	"repro/internal/geom"
	"repro/internal/wsn"
)

// Scheme is a localization algorithm bound to a deployed network.
// Implementations precompute whatever network-wide state they need
// (e.g. DV-Hop's hop-count floods) at construction time.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Localize estimates the location of node id.
	Localize(id wsn.NodeID) (geom.Point, error)
}

// Common errors.
var (
	// ErrNoObservation means a node heard nothing it can localize from
	// (no neighbors / no beacons in range).
	ErrNoObservation = errors.New("localize: no usable observation")
	// ErrUnderdetermined means too few references for the geometry
	// (e.g. fewer than three beacons for multilateration).
	ErrUnderdetermined = errors.New("localize: underdetermined geometry")
)

// Error quantifies a localization result against ground truth; the
// paper's Definition 1 ("localization error") is exactly this distance.
func Error(estimated, actual geom.Point) float64 {
	return estimated.Dist(actual)
}
