// Fixture: inner err := shadowing an outer err that is re-checked after
// the inner scope closes — the later check reads stale state.
package fixture

import "errors"

var errEmpty = errors.New("empty")

func parse(s string) (int, error) {
	if s == "" {
		return 0, errEmpty
	}
	return len(s), nil
}

// Total silently ignores a failed parse of b: the inner err is handled
// only by zeroing m, and the final check consults the outer err.
func Total(a, b string) (int, error) {
	n, err := parse(a)
	if b != "" {
		m, err := parse(b)
		if err != nil {
			m = 0
		}
		n += m
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Validate handles a failed re-parse only by clearing the payload; the
// final return still consults the outer err — the inner result is lost.
func Validate(s string) error {
	_, err := parse(s)
	if s != "" {
		err := parse2(s)
		if err != nil {
			s = ""
		}
	}
	return err
}

func parse2(s string) error {
	_, err := parse(s + s)
	return err
}

// Partial rewrites the outer err on one path only; the other path's check
// still reads the value the shadowed parse left behind.
func Partial(a, b string) (int, error) {
	n, err := parse(a)
	if b != "" {
		m, err := parse(b)
		if err != nil {
			m = 0
		}
		n += m
	}
	if n > 3 {
		_, err = parse(a + b)
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}
