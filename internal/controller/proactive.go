package controller

import (
	"autoglobe/internal/archive"
	"autoglobe/internal/forecast"
	"autoglobe/internal/monitor"
)

// ForecastConfig wires the load predictor into the controller (the
// paper's Section 7 extension: "The reservations and load prediction
// can be used to improve the action and host selection process of the
// controller"). When set, Proactive scans every host and every service
// once per minute and raises forecast triggers for predicted overloads,
// so the controller scales out *before* the monitor's watchTime
// confirms a measured one.
type ForecastConfig struct {
	// Predictor supplies PredictPeak over the shared load archive.
	Predictor *forecast.Predictor
	// Horizon is how many minutes ahead the scan looks. Zero disables
	// proactive control.
	Horizon int
	// Threshold is the predicted-peak load past which a forecast
	// trigger is raised — typically the monitor's overload threshold,
	// so "predicted overload" means the same thing as a measured one.
	Threshold float64
	// Watching, when set, suppresses the proactive scan for archive
	// entities already under a monitor watch: a situation the reactive
	// pipeline is about to confirm does not need a forecast.
	Watching func(entity string) bool
}

// rampFraction gates forecasts on the present: a trigger fires only
// when the entity's latest measured load has already climbed past
// rampFraction·Threshold. The day profile alone keeps "predicting"
// yesterday's overload even after a remedy fixed it — demanding a live
// ramp restricts the scan to situations actually unfolding, so the
// forecast front-runs the watchTime instead of replaying history.
// Confidence is not gated here: it rides on the trigger, where the
// forecast rule bases weigh it fuzzily.
const rampFraction = 0.8

// enabled reports whether the proactive scan is configured to run.
func (f *ForecastConfig) enabled() bool {
	return f != nil && f.Predictor != nil && f.Horizon > 0 && f.Threshold > 0
}

// Proactive runs the forecast scan for one minute: every host and
// every service with running instances is checked against the
// predicted peak load over the configured horizon, and a forecast
// trigger is returned for each predicted overload. The caller feeds
// the triggers through HandleTrigger like monitor-confirmed ones; the
// dedicated serviceForecastOverload/serverForecastOverload rule bases
// pick conservative, confidence-gated remedies.
//
// Entities in protection mode and entities already under a monitor
// watch (Watching) are skipped — the first to avoid oscillation, the
// second because a measured situation in confirmation outranks a
// prediction of the same thing.
func (c *Controller) Proactive(minute int) []monitor.Trigger {
	f := c.cfg.Forecast
	if !f.enabled() {
		return nil
	}
	watched := func(key string) bool { return f.Watching != nil && f.Watching(key) }
	floor := rampFraction * f.Threshold
	ramping := func(key string) bool {
		latest, have := f.Predictor.Latest(key)
		return have && latest.CPU >= floor
	}
	var out []monitor.Trigger
	emit := func(kind monitor.TriggerKind, entity string, peak, confidence float64) {
		out = append(out, monitor.Trigger{
			Kind:        kind,
			Entity:      entity,
			Minute:      minute,
			AvgLoad:     peak,
			WatchedFrom: max(0, minute-f.Horizon),
			Confidence:  confidence,
		})
		c.metrics.forecastTrigger(kind)
	}
	for _, host := range c.dep.Cluster().Names() {
		if c.HostProtected(host, minute) {
			continue
		}
		key := archive.HostEntity(host)
		if watched(key) || !ramping(key) {
			continue
		}
		peak, confidence, ok := f.Predictor.PredictPeak(key, minute, f.Horizon)
		if !ok || peak <= f.Threshold {
			continue
		}
		emit(monitor.ServerForecastOverload, host, peak, confidence)
	}
	for _, svcName := range c.dep.Catalog().Names() {
		if c.dep.CountOf(svcName) == 0 || c.ServiceProtected(svcName, minute) {
			continue
		}
		key := archive.ServiceEntity(svcName)
		if watched(key) || !ramping(key) {
			continue
		}
		peak, confidence, ok := f.Predictor.PredictPeak(key, minute, f.Horizon)
		if !ok || peak <= f.Threshold {
			continue
		}
		emit(monitor.ServiceForecastOverload, svcName, peak, confidence)
	}
	return out
}
