package pricing

import "sync"

// Account tracks one tenant's spending against a budget limit. The paper's
// economic framing ("users who are willing to pay different amounts to
// access Grid services") needs a consumer side to the ledger: a tenant
// whose budget runs out mid-session stops confirming offers and starts
// shedding quality, which is what the economic workload scenario drives.
// It is safe for concurrent use.
type Account struct {
	mu    sync.Mutex
	limit float64
	spent float64
}

// NewAccount returns an account with the given budget limit. A limit of 0
// (or negative) means unconstrained, matching the Request.Budget
// convention in the broker.
func NewAccount(limit float64) *Account {
	if limit < 0 {
		limit = 0
	}
	return &Account{limit: limit}
}

// Debit attempts to spend amount. It succeeds — and records the spend —
// only when the account stays within its limit; an unconstrained account
// always succeeds. Negative amounts are rejected.
func (a *Account) Debit(amount float64) bool {
	if amount < 0 {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit > 0 && a.spent+amount > a.limit {
		return false
	}
	a.spent += amount
	return true
}

// Remaining returns the budget headroom, or 0 for an unconstrained
// account.
func (a *Account) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit <= 0 {
		return 0
	}
	r := a.limit - a.spent
	if r < 0 {
		return 0
	}
	return r
}
