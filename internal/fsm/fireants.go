package fsm

import (
	"modelir/internal/synth"
)

// The fire-ants scenario of Fig. 1: "the fire ants of a region will fly if
// the region has some rain fall, and then remain dry for at least three
// days. In addition, the temperature needs to reach 25 degrees Celsius or
// higher."

// Fire-ants event alphabet indices.
const (
	EvRain    Event = iota // it rained
	EvDryHot               // no rain, T >= 25°C
	EvDryCold              // no rain, T < 25°C
)

// FireAntsAlphabet names the three daily events.
var FireAntsAlphabet = []string{"rains", "dry_T>=25", "dry_T<25"}

// FlyTempC is the temperature threshold from Fig. 1.
const FlyTempC = 25.0

// FireAnts builds the Fig. 1 machine. States: Rain, Dry-1, Dry-2,
// Dry-3-plus, and the accepting Fire-Ants-Fly. Any rain resets to Rain;
// the third consecutive dry day (or any later dry day) with T >= 25
// triggers flight; once flying, the state persists until rain.
func FireAnts() *Machine {
	b := NewBuilder(FireAntsAlphabet)
	rain := b.State("rain")
	dry1 := b.State("dry-1")
	dry2 := b.State("dry-2")
	dry3 := b.State("dry-3+")
	fly := b.State("fire-ants-fly")
	b.Start(rain).Accept(fly)

	// Rain resets every state.
	for _, s := range []int{rain, dry1, dry2, dry3, fly} {
		b.On(s, EvRain, rain)
	}
	// Dry-day counting; temperature is irrelevant until day 3.
	b.On(rain, EvDryHot, dry1).On(rain, EvDryCold, dry1)
	b.On(dry1, EvDryHot, dry2).On(dry1, EvDryCold, dry2)
	// Third dry day: hot -> fly, cold -> keep counting.
	b.On(dry2, EvDryHot, fly).On(dry2, EvDryCold, dry3)
	b.On(dry3, EvDryHot, fly).On(dry3, EvDryCold, dry3)
	// Flying persists through dry weather.
	b.On(fly, EvDryHot, fly).On(fly, EvDryCold, fly)

	m, err := b.Build()
	if err != nil {
		// Static construction cannot fail.
		panic(err)
	}
	return m
}

// ClassifyDay maps one weather observation to a fire-ants event.
func ClassifyDay(d synth.DayWeather) Event {
	switch {
	case d.Rain:
		return EvRain
	case d.TempC >= FlyTempC:
		return EvDryHot
	default:
		return EvDryCold
	}
}

// ClassifySeries maps a daily series to events.
func ClassifySeries(days []synth.DayWeather) []Event {
	out := make([]Event, len(days))
	for i, d := range days {
		out[i] = ClassifyDay(d)
	}
	return out
}

// FlyScore ranks a region for fire-ants retrieval: the fraction of days
// spent in the accepting state, with an earlier first flight breaking
// ties upward (earlier risk scores higher). Returns 0 for regions that
// never reach the flying state.
func FlyScore(m *Machine, events []Event) (float64, error) {
	res, err := m.Run(events)
	if err != nil {
		return 0, err
	}
	return flyScore(res, len(events)), nil
}

// flyScore is FlyScore's ranking of a run over n events.
func flyScore(res RunResult, n int) float64 {
	if res.FirstAccept < 0 {
		return 0
	}
	frac := float64(res.AcceptCount) / float64(n)
	// Earlier onset adds up to one extra unit, scaled by recency.
	onset := 1 - float64(res.FirstAccept)/float64(n)
	return frac + onset
}
