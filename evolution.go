package choreo

import (
	"repro/internal/change"
	"repro/internal/choreography"
	"repro/internal/core"
)

// Change operations on private processes (paper Sec. 4).
type (
	// ChangeOperation is a structural change of a private process;
	// Apply is copy-on-write.
	ChangeOperation = change.Operation
	// Insert places a new activity next to a sibling.
	Insert = change.Insert
	// Append adds an activity at the end of a Sequence or Flow.
	Append = change.Append
	// Delete removes the activity at a path.
	Delete = change.Delete
	// Replace substitutes the activity at a path.
	Replace = change.Replace
	// AddPickBranch adds an onMessage branch to a Pick.
	AddPickBranch = change.AddPickBranch
	// AddSwitchCase adds a case to a Switch.
	AddSwitchCase = change.AddSwitchCase
	// ReplaceReceiveWithPick widens a Receive into a Pick (the shape
	// of the paper's Figs. 9 and 14).
	ReplaceReceiveWithPick = change.ReplaceReceiveWithPick
	// WrapTailInSwitch moves a sequence suffix into a new Switch (the
	// paper's Fig. 11 credit check).
	WrapTailInSwitch = change.WrapTailInSwitch
	// SetWhileCond changes a loop condition.
	SetWhileCond = change.SetWhileCond
	// Shift moves an activity next to another sibling (the paper's
	// "shift process activities" operation).
	Shift = change.Shift
	// Composite applies several operations in order.
	Composite = change.Composite
)

// Change classification (paper Defs. 5 and 6).
type (
	// ChangeKind is the additive/subtractive dimension (Def. 5).
	ChangeKind = core.ChangeKind
	// ChangeScope is the invariant/variant dimension (Def. 6): variant
	// changes must be propagated.
	ChangeScope = core.Scope
	// Classification bundles both dimensions.
	Classification = core.Classification
)

// Change kinds and scopes.
const (
	ChangeNeutral     = core.KindNeutral
	ChangeAdditive    = core.KindAdditive
	ChangeSubtractive = core.KindSubtractive
	ChangeBoth        = core.KindBoth

	ScopeInvariant = core.ScopeInvariant
	ScopeVariant   = core.ScopeVariant
)

// ClassifyChange implements Def. 5 on the old and new public process.
func ClassifyChange(oldPublic, newPublic *Automaton) ChangeKind {
	return core.ClassifyChange(oldPublic, newPublic)
}

// ClassifyScope implements Def. 6 against one partner.
func ClassifyScope(newView, partnerPublic *Automaton) (ChangeScope, error) {
	return core.ClassifyScope(newView, partnerPublic)
}

// Propagation planning (paper Secs. 5.2/5.3).
type (
	// Plan is a propagation plan for one partner: difference
	// automaton, adapted public process, changed states and private
	// regions.
	Plan = core.Plan
	// Hint is one located behavioral difference.
	Hint = core.Hint
	// Region is a private-process area derived from a hint.
	Region = core.Region
	// Suggestion is one proposed private adaptation.
	Suggestion = core.Suggestion
	// Suggester derives suggestions from a plan.
	Suggester = core.Suggester
)

// PlanAdditive executes steps 1–3 of Sec. 5.2 for one partner.
func PlanAdditive(newView, partnerPublic *Automaton, tbl MappingTable) (*Plan, error) {
	return core.PlanAdditive(newView, partnerPublic, tbl)
}

// PlanSubtractive executes steps 1–3 of Sec. 5.3 for one partner.
func PlanSubtractive(newView, partnerPublic *Automaton, tbl MappingTable) (*Plan, error) {
	return core.PlanSubtractive(newView, partnerPublic, tbl)
}

// Choreography orchestration (paper Fig. 4).
type (
	// Choreography holds the parties and drives controlled evolution.
	Choreography = choreography.Choreography
	// Party is one registered participant.
	Party = choreography.Party
	// EvolutionReport is the outcome of analyzing one change.
	EvolutionReport = choreography.EvolutionReport
	// PartnerImpact is the per-partner effect of a change.
	PartnerImpact = core.PartnerImpact
	// ConsistencyReport is the pairwise consistency status.
	ConsistencyReport = choreography.ConsistencyReport
	// PairReport is one pair's status.
	PairReport = choreography.PairReport
)

// NewChoreography returns an empty choreography validating against
// reg (which may be nil).
func NewChoreography(reg *Registry) *Choreography {
	return choreography.New(reg)
}

// ExecutableSuggestions filters suggestions that carry a ready
// operation.
func ExecutableSuggestions(s []Suggestion) []ChangeOperation {
	return choreography.ExecutableSuggestions(s)
}
