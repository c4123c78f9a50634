// wakereach.go is the fixture home of the cross-function park/wake cases:
// the transition lives in a helper, the return-without-wake in its caller,
// so no single body shows the hang — the shape of the PR 3 VI.Close bug.
package via

// failQuiet moves queued descriptors into a waiter-visible status and
// deliberately does not wake: its callers own the obligation. It is not
// flagged here: it is unexported and only in-scope functions call it, so
// wakereach follows the obligation into the callers below.
func failQuiet(vi *VI, s Status) {
	for _, d := range vi.sendQ {
		d.Status = s
	}
}

// AbortBad inherits the helper's obligation and returns without any wake —
// wakereach must flag it: it is exported, so the escaped obligation leaves
// the provider with a waiter still parked.
func AbortBad(vi *VI) {
	failQuiet(vi, StatusDisconnected)
}

// AbortGood wakes after the helper on every path — must NOT flag.
func AbortGood(vi *VI) {
	failQuiet(vi, StatusDisconnected)
	vi.port.notifyActivity()
}

// AbortDeferred arms the wake before the helper runs — must NOT flag.
func AbortDeferred(vi *VI) {
	defer vi.port.notifyActivity()
	failQuiet(vi, StatusDisconnected)
}
