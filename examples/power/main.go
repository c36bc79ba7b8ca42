// Power sweeps the SCC's DVFS envelope with the Pi benchmark: the same
// translated RCCE program runs with the chip clocked at several
// frequencies, reporting simulated runtime, the fitted power model
// (anchored to the chip's published 25 W @ 0.7 V/125 MHz and 125 W @
// 1.14 V/1 GHz operating points) and the resulting energy — the
// power/performance trade the thesis motivates HSM manycores with.
package main

import (
	"fmt"
	"log"

	"hsmcc"
	"hsmcc/internal/bench"
	"hsmcc/internal/interp"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

func main() {
	const cores = 16
	pi, _ := bench.ByKey("pi")
	src := pi.Source(cores, 0.5)

	translated, err := hsmcc.Translate("pi.c", src, hsmcc.Options{Cores: cores})
	if err != nil {
		log.Fatal(err)
	}

	// A Program is immutable: one compile serves every clock setting.
	pr, err := interp.Compile("pi_rcce.c", translated.Output)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%8s %10s %10s %10s\n", "MHz", "time (ms)", "power (W)", "energy (J)")
	for _, mhz := range []int{200, 400, 533, 800, 1000} {
		machine := sccsim.MustNew(sccsim.DefaultConfig())
		for d := 0; d < machine.VoltageDomains(); d++ {
			if err := machine.SetDomainMHz(d, mhz); err != nil {
				log.Fatal(err)
			}
		}
		res, err := rcce.Run(pr, machine, rcce.DefaultOptions(cores))
		if err != nil {
			log.Fatal(err)
		}
		seconds := res.Seconds()
		watts := machine.PowerEstimate()
		fmt.Printf("%8d %10.3f %10.1f %10.3f\n", mhz, seconds*1e3, watts, watts*seconds)
	}
	fmt.Println()
	fmt.Println("Higher clocks finish sooner but burn superlinear power;")
	fmt.Println("the energy column shows where race-to-idle stops paying.")
}
