package main

import "testing"

func TestCheckArgs(t *testing.T) {
	for _, c := range []struct {
		corpus string
		count  int
		ok     bool
	}{
		{"testdata/fuzz", 0, true},
		{"", 256, true},
		{"testdata/fuzz", 4, true},
		{"", 0, false},
		{"", -3, false},
		{"testdata/fuzz", -3, false},
	} {
		if err := checkArgs(c.corpus, c.count); (err == nil) != c.ok {
			t.Errorf("checkArgs(%q, %d) = %v, want ok=%v", c.corpus, c.count, err, c.ok)
		}
	}
}
