//! What one benchmark run reports, and the statistics it is made of.

/// A run's checks and metrics.
#[derive(Default)]
pub struct Output {
    /// Campaigns (`CampaignDriver::run` calls) made.
    pub attempted: u64,
    /// Failed output checks; the run is correct iff this is empty.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Figures printed with the table but kept out of the JSON line,
    /// because they are not metrics of this mode.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
        self.metrics.push((name, value + 0.0, unit));
    }

    /// The metric table, one line per metric and note.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .chain(&self.notes)
            .map(|(name, value, unit)| format!("{name:<28} {value:>18.4} {unit}\n"))
            .collect()
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.problems.len(),
            metrics.join(", ")
        )
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
