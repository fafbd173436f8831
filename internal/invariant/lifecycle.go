package invariant

import (
	"fmt"
	"time"

	"gqosm/internal/core"
	"gqosm/internal/sla"
)

// CheckLifecycle runs the expiry-boundary rules the confirm-window and
// session-end timers promise, at a quiesce point *after* ExpireDue has
// run at the same clock reading:
//
//   - stale-proposal: no session sits in StateProposed past the broker's
//     confirm window — the auto-cancel timer armed at proposal time must
//     have expired the offer (a window <= 0 skips the rule);
//   - overstay-session: no live session persists past its negotiated
//     End — the lease-churn scenario hammers exactly this boundary, where
//     an accept races the expiry sweep.
//
// These rules are meaningful only for drivers that sweep expiries at
// every quiesce (the scenario/soak harness); drivers that let offers
// ride (chaos, fuzz) must not install them.
func CheckLifecycle(b *core.Broker, now time.Time, confirmWindow time.Duration) error {
	return wrap(lifecycleViolations(b, now, confirmWindow))
}

func lifecycleViolations(b *core.Broker, now time.Time, confirmWindow time.Duration) []Violation {
	var vs []Violation
	for _, s := range b.SessionInfos() {
		if s.State.Terminal() {
			continue
		}
		if s.State == sla.StateProposed {
			if s.ProposedAt.IsZero() || confirmWindow <= 0 {
				continue
			}
			if now.After(s.ProposedAt.Add(confirmWindow)) {
				vs = append(vs, Violation{
					Rule: "stale-proposal",
					Detail: fmt.Sprintf("session %s proposed at %s still unexpired at %s (window %s)",
						s.ID, s.ProposedAt.Format("15:04:05"), now.Format("15:04:05"), confirmWindow),
				})
			}
			continue
		}
		doc, err := b.Session(s.ID)
		if err != nil {
			continue // pruned between snapshot and lookup
		}
		if !doc.End.IsZero() && now.After(doc.End) {
			vs = append(vs, Violation{
				Rule: "overstay-session",
				Detail: fmt.Sprintf("session %s (%s) persists past its end %s at %s",
					s.ID, doc.State, doc.End.Format("15:04:05"), now.Format("15:04:05")),
			})
		}
	}
	return vs
}
