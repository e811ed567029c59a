package main

import (
	"strings"
	"testing"
)

func TestCheckFigure(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"all", true},
		{"6", true}, {"9", true}, {"10", true}, {"11", true},
		{"12", true}, {"13", true}, {"14", true},
		{"parallel", false}, // removed with the trajectory suite
		{"nope", false},
		{"", false},
		{"7", false},
		{"ALL", false},
	} {
		err := checkFigure(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("checkFigure(%q) = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "all, 9, 10, 11, 12, 13, 14, 6") {
			t.Errorf("checkFigure(%q): error does not list the valid figures: %v", tc.name, err)
		}
	}
}
