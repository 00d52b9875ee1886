package choreo

import (
	"repro/internal/paperrepro"
)

// The paper's procurement scenario (Sec. 2) as ready-made fixtures:
// buyer (party "B"), accounting ("A") and logistics ("L"), plus the
// three change operations of the evaluation scenarios. The Example
// functions, the tests and the benchmarks build on these.

// PaperRegistry returns the WSDL registry of the paper scenario.
func PaperRegistry() *Registry { return paperrepro.Registry() }

// PaperBuyer returns the buyer private process (paper Fig. 3).
func PaperBuyer() *Process { return paperrepro.BuyerProcess() }

// PaperAccounting returns the accounting private process (paper
// Fig. 2).
func PaperAccounting() *Process { return paperrepro.AccountingProcess() }

// PaperLogistics returns the logistics private process (inferred from
// paper Figs. 1 and 8b).
func PaperLogistics() *Process { return paperrepro.LogisticsProcess() }

// PaperScenario builds the full three-party choreography of paper
// Fig. 1, consistency-checked.
func PaperScenario() (*Choreography, error) {
	c := NewChoreography(PaperRegistry())
	for _, p := range []*Process{PaperBuyer(), PaperAccounting(), PaperLogistics()} {
		if err := c.AddParty(p); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// PaperOrderTwoChange returns the invariant additive change of paper
// Sec. 5.1 (accept an alternative order format).
func PaperOrderTwoChange() ChangeOperation { return paperrepro.OrderTwoChange() }

// PaperCancelChange returns the variant additive change of paper
// Sec. 5.2 (credit check with a cancel alternative).
func PaperCancelChange() ChangeOperation { return paperrepro.CancelChange() }

// PaperTrackingLimitChange returns the variant subtractive change of
// paper Sec. 5.3 (at most one parcel-tracking round).
func PaperTrackingLimitChange() ChangeOperation { return paperrepro.TrackingLimitChange() }

// Fig5PartyA returns the left aFSA of the paper's Fig. 5 worked
// example (msg0/msg2 optional).
func Fig5PartyA() *Automaton { return paperrepro.Fig5PartyA() }

// Fig5PartyB returns the right aFSA of Fig. 5 (msg1/msg2 mandatory).
func Fig5PartyB() *Automaton { return paperrepro.Fig5PartyB() }
