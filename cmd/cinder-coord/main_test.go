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

// TestSubmitRefusesWaitFlagsWithoutWait: -o, -canonical and
// -status-every only shape what -wait does, so submit without -wait
// refuses each, naming it and -wait, before it dials.
func TestSubmitRefusesWaitFlagsWithoutWait(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-o", "report.json"}, "-o"},
		{[]string{"-canonical"}, "-canonical"},
		{[]string{"-status-every", "1s"}, "-status-every"},
		{[]string{"-devices", "4", "-o", "report.json"}, "-o"},
	} {
		err := runSubmit(append([]string{"-coord", "http://127.0.0.1:1"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.flag+" needs -wait") {
			t.Errorf("%v: got %v, want a refusal naming %s and -wait", tc.args, err, tc.flag)
		}
	}
}
