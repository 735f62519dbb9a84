package lib

import "testing"

func TestLib(t *testing.T) {
	if Run(Config{Knob: true}) != "knob" || Unused()+Kept() != 3 {
		t.Fatal("lib")
	}
}
