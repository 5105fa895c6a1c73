package main

import (
	"strings"
	"testing"
)

func TestCheckWhat(t *testing.T) {
	for _, w := range whats {
		if err := checkWhat(w); err != nil {
			t.Errorf("checkWhat(%q) = %v, want nil", w, err)
		}
	}
	for _, w := range []string{"", "fig77", "perf", "FIG7", "fig7,fig8"} {
		err := checkWhat(w)
		if err == nil {
			t.Fatalf("checkWhat(%q) = nil, want an error", w)
		}
		if msg := err.Error(); !strings.Contains(msg, "machine|configs|fig7|fig8|fig9|width|stats|pentest|all") {
			t.Errorf("checkWhat(%q) = %q, want it to name the valid values", w, msg)
		}
	}
}
