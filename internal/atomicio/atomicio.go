// Package atomicio writes files atomically: content is produced into a
// temporary file in the destination's directory and renamed over the
// destination only after every byte (and the close) succeeded. A failed
// write, a full disk, or a process interrupt therefore never leaves a
// truncated or half-written file where a consumer expects a complete one —
// the destination either keeps its previous content or receives the new
// content whole. The CLIs share it for every user-visible output
// (assignments, converted problems, generated instances).
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes the output of emit to path atomically. The temporary
// file lives in path's directory so the final rename stays on one
// filesystem (rename is only atomic within a filesystem). On any error —
// from emit, from the underlying writes, or from the close — the temporary
// file is removed and the destination is left untouched.
func WriteFile(path string, emit func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	werr := emit(tmp)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicio: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicio: %w", err)
	}
	return nil
}
