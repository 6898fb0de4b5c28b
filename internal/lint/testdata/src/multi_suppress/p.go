// Fixture: one //lint:ignore line naming several analyzers. Inside a
// package named qbp, a process-global rand call trips both map-order-leak
// (entropy in solver state) and unseeded-rand, exactly as in
// maporder_entropy; one comment listing both must silence both findings.
package qbp

import "math/rand"

// Jitter draws from process-global randomness on purpose.
func Jitter() int {
	//lint:ignore map-order-leak,unseeded-rand fixture: one line suppresses several analyzers
	return rand.Intn(4)
}
