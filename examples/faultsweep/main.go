// Fault sweep: reproduce the paper's §VIII validity exploration — sweep
// delay and packet-loss magnitudes on both the driving simulator and the
// scale model vehicle and print the drivability grades, showing that the
// model vehicle degrades at far lower fault levels.
//
//	go run ./examples/faultsweep
package main

import (
	"fmt"
	"log"

	"teledrive/internal/driver"
	"teledrive/internal/validity"
)

func main() {
	subject, _ := driver.SubjectByName("T5")
	envs := []validity.Env{
		validity.Simulator(subject),
		validity.ModelVehicle(),
	}
	for _, env := range envs {
		delays := validity.PaperDelays()
		if env.Name == "model-vehicle" {
			delays = validity.ModelDelays()
		}
		points, err := validity.Sweep(env, delays, validity.PaperLosses(), 99, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", env.Name)
		fmt.Printf("%-12s %-11s %6s %6s %8s %6s\n", "condition", "grade", "SRR", "speed", "lateral", "crash")
		for _, p := range points {
			fmt.Printf("%-12s %-11s %6.1f %6.2f %8.3f %6d\n",
				p.Label, p.Grade, p.SRR, p.MeanSpeed, p.MeanAbsLateral, p.Collisions)
		}
		fmt.Println()
	}
}
