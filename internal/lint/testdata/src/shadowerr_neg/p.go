// Fixture: error rebinding patterns that are fine — tuple reassignment in
// the same scope, an inner err fully handled with no later outer read, an
// inner err with no outer err in sight, and the if/for/switch init-clause
// idiom.
package fixture

import "errors"

var errOdd = errors.New("odd")

func check(n int) (int, error) {
	if n%2 == 1 {
		return 0, errOdd
	}
	return n, nil
}

// Chain reuses the same err variable: := in the same scope redeclares
// nothing, so no shadow exists.
func Chain(a, b int) (int, error) {
	x, err := check(a)
	if err != nil {
		return 0, err
	}
	y, err := check(b)
	if err != nil {
		return 0, err
	}
	return x + y, nil
}

// Handled shadows err but never reads the outer one afterwards.
func Handled(a, b int) int {
	n, err := check(a)
	if err != nil {
		n = 0
	}
	if b > 0 {
		m, err := check(b)
		if err != nil {
			m = 0
		}
		n += m
	}
	return n
}

// InitClause shadows err in if and switch init statements — the idiom Go
// recommends to limit scope — then re-checks the outer err. Exempt.
func InitClause(a, b int) (int, error) {
	n, err := check(a)
	if _, err := check(b); err != nil {
		n++
	}
	switch _, err := check(b + 1); {
	case err != nil:
		n--
	}
	for _, err := check(b + 2); err != nil; err = nil {
		n += 2
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Fresh has no outer err to shadow.
func Fresh(a int) int {
	if a > 0 {
		v, err := check(a)
		if err != nil {
			return 0
		}
		return v
	}
	return 0
}

// Rebound shadows err inside a loop, then rebinds the outer err with a
// fresh `x, err :=` before checking it: the check reads the new value.
func Rebound(xs []int) (int, error) {
	total, err := check(0)
	if err != nil {
		return 0, err
	}
	for _, x := range xs {
		v, err := check(x)
		if err != nil {
			return 0, err
		}
		total += v
	}
	last, err := check(total)
	if err != nil {
		return 0, err
	}
	return last, nil
}

// Branches shadows err in one arm of an if/else. The other arm's check
// never runs after the shadow, and the final return follows a write of err
// on every path.
func Branches(fast bool, a int) (int, error) {
	n, err := check(a)
	if err != nil {
		return 0, err
	}
	if fast {
		m, err := check(a + 2)
		if err != nil {
			return 0, err
		}
		n += m
	} else {
		run(func() { n, err = check(n) })
		if err != nil {
			return 0, err
		}
	}
	if n > 4 {
		_, err = check(n)
	} else {
		_, err = check(-n)
	}
	return n, err
}

func run(f func()) { f() }
