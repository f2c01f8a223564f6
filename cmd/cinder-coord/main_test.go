package main

import (
	"strings"
	"testing"
)

// TestSubmitRefusesNonPositiveStatusEvery: -wait polls the coordinator
// every -status-every, so an interval that is not positive would poll
// and log in a loop with no pause. submit refuses it before it dials.
func TestSubmitRefusesNonPositiveStatusEvery(t *testing.T) {
	for _, every := range []string{"0", "-1s"} {
		err := runSubmit([]string{"-wait", "-status-every", every})
		if err == nil || !strings.Contains(err.Error(), "-status-every must be positive") {
			t.Errorf("-status-every %s: got %v, want a refusal", every, err)
		}
	}
}
