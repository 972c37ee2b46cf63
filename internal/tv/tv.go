// Package tv is the translation validator for the duplication engine: a
// per-transformation equivalence checker in the Pnueli/Necula tradition,
// specialized to the four structural edits internal/replicate performs.
//
// The engine emits one Certificate per *applied* duplication (rolled-back
// candidates emit nothing — see replicate.Options.OnCertificate), recording
// the source edge, the replicated block range, every retargeted branch, and
// — for a folded conditional — the decided transfer plus the evidence that
// decided it. Validate then checks the certificate against the
// post-transformation flow graph, on which every original block still
// coexists with its copies, so equivalence reduces to a cut-point
// bisimulation with block entries as cut points and the identity variable
// map:
//
//   - each copy's body (everything up to the terminator) must be
//     instruction-for-instruction equal to its original's, so symbolic
//     simulation of the duplicated path against the original path is the
//     identity between cut points;
//   - each copy's outgoing edges must correspond to its original's under
//     the image relation img(Y, X) ≡ Y = X or (X, Y) ∈ Copies — including
//     the branch-reversal case (negated relation with swapped taken and
//     fall-through edges) and fall-through edges routed through an
//     auxiliary single-jump block;
//   - every branch retargeted from an original onto a copy must land on a
//     certificate-listed copy of exactly the block it used to target.
//
// The relation {(copy, original)} ∪ identity is then a bisimulation: every
// step from a copy is matched by the corresponding step from its original
// into related states with equal variable maps, coinductively for cycles
// among copies.
//
// A fold certificate carries one extra obligation: the copy's conditional
// branch was replaced by an unconditional transfer to the direction the
// optimizer claims is decided on the duplicated edge. Validate discharges
// it by re-deriving the outcome from scratch — its own constant
// environment, operand-stability check, and relation sign-set algebra
// (sym.go), deliberately independent of the optimizer's implementation —
// and rejects the certificate unless the re-derivation reaches the same
// verdict as the recorded Evidence.
//
// Validation failures are reported as verify.Violations with
// verify.RuleTranslation so the pipeline's verify-each machinery attributes
// them to pass, stage and iteration (see pipeline.Config.TV).
package tv

import "repro/internal/rtl"

// Kind identifies which structural edit a certificate describes.
type Kind string

// The certificate kinds, one per duplication-engine edit.
const (
	// KindReplication is a JUMPS step-4/5 splice: an unconditional jump
	// replaced by copies of the blocks on a path from its target.
	KindReplication Kind = "replication"
	// KindJumpDelete is the trivial JUMPS case: a jump to the positionally
	// next block deleted outright (nothing is copied).
	KindJumpDelete Kind = "jump-delete"
	// KindFold is a DUPS conditional elimination: a test block duplicated
	// onto one incoming edge with its branch folded to the decided
	// transfer.
	KindFold Kind = "fold"
	// KindRotation is a LOOPS rotation: a jump to a loop's pure
	// termination test replaced in place by an adjusted copy of the test.
	KindRotation Kind = "rotation"
)

// CopyPair records that block Copy was spliced in as a copy of block Orig.
type CopyPair struct {
	Orig rtl.Label `json:"orig"`
	Copy rtl.Label `json:"copy"`
}

// Retarget records one branch rewritten from an original block onto its
// copy (JUMPS step 5 preserving loop structure, or a fold's branch-taken
// edge).
type Retarget struct {
	// Block is the label of the block whose terminating branch was
	// rewritten.
	Block rtl.Label `json:"block"`
	// Old and New are the branch target before and after the rewrite; New
	// must be a certificate-listed copy of Old.
	Old rtl.Label `json:"old"`
	New rtl.Label `json:"new"`
}

// EdgeShape classifies the incoming edge a fold acted on; the engine's
// conditional elimination names its edges by the same shapes.
type EdgeShape string

// The fold edge shapes.
const (
	// EdgeJump: the predecessor ended in an unconditional jump to the test
	// block; the fold dissolved the jump and the copy became the
	// predecessor's fall-through.
	EdgeJump EdgeShape = "jump"
	// EdgeBrTaken: the predecessor's conditional branch targeted the test
	// block; the taken edge was retargeted onto the copy.
	EdgeBrTaken EdgeShape = "br-taken"
	// EdgeFall: control fell through into the test block; the copy was
	// spliced between predecessor and test.
	EdgeFall EdgeShape = "fall"
)

// EvidenceRoute names which of the two decision procedures decided a
// folded branch.
type EvidenceRoute string

// The fold evidence routes.
const (
	// RouteConst: both compared values are constants on the path through
	// the predecessor.
	RouteConst EvidenceRoute = "const"
	// RouteRel: the predecessor's own terminating test compared the same
	// operands and the edge direction implies the outcome.
	RouteRel EvidenceRoute = "rel"
)

// Evidence is the reason a fold's branch outcome was decided. The
// validator re-derives the outcome from the flow graph and requires the
// re-derivation to travel the recorded route to the recorded verdict — the
// evidence is checked, never trusted.
type Evidence struct {
	Route EvidenceRoute `json:"route"`
	// X and Y are the constant operand values of the folded comparison
	// (RouteConst only).
	X int64 `json:"x,omitempty"`
	Y int64 `json:"y,omitempty"`
	// RelX and RelY are the operands of the predecessor's dominating test
	// and Rel the relation known to hold between them on the folded edge
	// (RouteRel only).
	RelX rtl.Operand `json:"rel_x"`
	RelY rtl.Operand `json:"rel_y"`
	Rel  rtl.Rel     `json:"rel,omitempty"`
}

// Certificate describes one applied duplication in enough detail for
// Validate to check it against the post-transformation function. Fields
// beyond Kind/Func/Block/Target apply only to the kinds noted.
type Certificate struct {
	Kind Kind   `json:"kind"`
	Func string `json:"func"`
	// Block is the source block of the rewritten edge: the block whose
	// jump was replaced (replication, jump-delete, rotation) or the
	// predecessor whose edge was folded (fold).
	Block rtl.Label `json:"block"`
	// Target is the original destination of that edge: the deleted jump's
	// target, the head of the replicated sequence, the duplicated test
	// block, or the rotated loop test.
	Target rtl.Label `json:"target"`

	// Copies lists the spliced copies in replica order (replication only;
	// Copies[0].Orig is Target and Copies[0].Copy the block the source
	// now falls into).
	Copies []CopyPair `json:"copies,omitempty"`
	// Aux lists the auxiliary single-jump blocks the splice created for
	// fall-through edges neither side of a copied branch could satisfy.
	Aux []rtl.Label `json:"aux,omitempty"`
	// FallsTo is the label execution reaches after the last replica block
	// by fall-through, or rtl.NoLabel for a favoring-returns sequence.
	FallsTo rtl.Label `json:"falls_to,omitempty"`
	// Retargets lists every branch redirected from an original onto a
	// copy (replication step 5).
	Retargets []Retarget `json:"retargets,omitempty"`

	// Copy is the folded copy's label (fold only).
	Copy rtl.Label `json:"copy,omitempty"`
	// Edge is the shape of the incoming edge the fold acted on.
	Edge EdgeShape `json:"edge,omitempty"`
	// Taken reports the decided branch direction and Dest the transfer
	// target the fold installed (the branch target when taken, the test
	// block's fall-through otherwise).
	Taken bool      `json:"taken,omitempty"`
	Dest  rtl.Label `json:"dest,omitempty"`
	// Evidence is the decision evidence the validator re-derives.
	Evidence Evidence `json:"evidence"`

	// CopyLen is the number of instructions the rotation appended in
	// place of the jump (rotation only); it must equal the test block's
	// length.
	CopyLen int `json:"copy_len,omitempty"`
}
