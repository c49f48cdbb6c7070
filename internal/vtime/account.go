package vtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Account accumulates virtual time by category, used to break an experiment's
// per-iteration time into compute / communication / coupler components
// (the phases DESIGN.md § Kernel efficiency calibration fits per family).
type Account struct {
	mu    sync.Mutex
	spent map[string]time.Duration
}

// NewAccount returns an empty account.
func NewAccount() *Account { return &Account{spent: make(map[string]time.Duration)} }

// Add charges d to the named category.
func (a *Account) Add(category string, d time.Duration) {
	if d <= 0 {
		return
	}
	a.mu.Lock()
	a.spent[category] += d
	a.mu.Unlock()
}

// Get returns the time charged to category.
func (a *Account) Get(category string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent[category]
}

// Total returns the sum over all categories.
func (a *Account) Total() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	var t time.Duration
	for _, d := range a.spent {
		t += d
	}
	return t
}

// Reset clears all categories.
func (a *Account) Reset() {
	a.mu.Lock()
	a.spent = make(map[string]time.Duration)
	a.mu.Unlock()
}

// String renders the account as "cat=dur" pairs sorted by category.
func (a *Account) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.spent))
	for k := range a.spent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%v", k, a.spent[k])
	}
	return b.String()
}
