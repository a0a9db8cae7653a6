//! Merged point-in-time view of every published collector, with a JSONL
//! serialisation (the build is offline: no serde).
//!
//! One metric per line, `type` ∈ {`counter`, `value`, `timer`, `derived`}:
//!
//! ```text
//! {"type":"counter","name":"em.iterations","value":123}
//! {"type":"timer","name":"kf.loglik","count":10,"total_ns":...,"buckets":[[3,1],[5,9]]}
//! ```
//!
//! Timer lines additionally carry `mean_ns`/`p50_ns`/`p99_ns` for human and
//! downstream-tool consumption.

use crate::metrics::{LocalCollector, TimerStat, ValueStat};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A merged, cumulative view of all metrics recorded since the last
/// [`crate::reset`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub values: BTreeMap<String, ValueStat>,
    pub timers: BTreeMap<String, TimerStat>,
    /// Caller-computed quantities (e.g. cost units) carried into the JSONL.
    pub derived: BTreeMap<String, f64>,
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.values.is_empty()
            && self.timers.is_empty()
            && self.derived.is_empty()
    }

    /// Counter value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn timer(&self, name: &str) -> Option<&TimerStat> {
        self.timers.get(name)
    }

    pub fn value(&self, name: &str) -> Option<&ValueStat> {
        self.values.get(name)
    }

    /// Attach a derived quantity (ignored unless finite).
    pub fn add_derived(&mut self, name: &str, v: f64) {
        if v.is_finite() {
            self.derived.insert(name.to_string(), v);
        }
    }

    pub(crate) fn merge_local(&mut self, local: LocalCollector) {
        for (name, v) in local.counters {
            *self.counters.entry(name.to_string()).or_insert(0) += v;
        }
        for (name, v) in local.values {
            self.values.entry(name.to_string()).or_default().merge(&v);
        }
        for (name, v) in local.timers {
            self.timers.entry(name.to_string()).or_default().merge(&v);
        }
    }

    /// Merge another snapshot into this one (counters add, stats merge,
    /// derived values overwrite).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.values {
            self.values.entry(name.clone()).or_default().merge(v);
        }
        for (name, v) in &other.timers {
            self.timers.entry(name.clone()).or_default().merge(v);
        }
        for (name, v) in &other.derived {
            self.derived.insert(name.clone(), *v);
        }
    }

    /// The change since an `earlier` cumulative snapshot: counters and timer
    /// totals subtract; value stats and derived entries are taken from
    /// `self` as-is (they are not invertible).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, v) in &self.counters {
            out.counters
                .insert(name.clone(), v.saturating_sub(earlier.counter(name)));
        }
        for (name, v) in &self.timers {
            let d = match earlier.timers.get(name) {
                Some(e) => v.saturating_sub(e),
                None => v.clone(),
            };
            out.timers.insert(name.clone(), d);
        }
        out.values = self.values.clone();
        out.derived = self.derived.clone();
        out
    }

    /// Serialise to JSONL (one metric per line, deterministic order).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(
                s,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                escape(name)
            );
        }
        for (name, v) in &self.values {
            let _ = writeln!(
                s,
                "{{\"type\":\"value\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"last\":{},\"mean\":{}}}",
                escape(name),
                v.count,
                fmt_f64(v.sum),
                fmt_f64(v.min),
                fmt_f64(v.max),
                fmt_f64(v.last),
                fmt_f64(v.mean()),
            );
        }
        for (name, t) in &self.timers {
            let mut buckets = String::from("[");
            for (i, &b) in t.buckets.iter().enumerate() {
                if b > 0 {
                    if buckets.len() > 1 {
                        buckets.push(',');
                    }
                    let _ = write!(buckets, "[{i},{b}]");
                }
            }
            buckets.push(']');
            let _ = writeln!(
                s,
                "{{\"type\":\"timer\",\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"buckets\":{buckets}}}",
                escape(name),
                t.count,
                t.total_ns,
                if t.count == 0 { 0 } else { t.min_ns },
                t.max_ns,
                fmt_f64(t.mean_ns()),
                t.quantile_ns(0.5),
                t.quantile_ns(0.99),
            );
        }
        for (name, v) in &self.derived {
            let _ = writeln!(
                s,
                "{{\"type\":\"derived\",\"name\":\"{}\",\"value\":{}}}",
                escape(name),
                fmt_f64(*v)
            );
        }
        s
    }
}

/// Shortest-round-trip float formatting (Rust's `{}` is exact on re-parse);
/// non-finite values — which the recorder never stores — degrade to 0.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_format_is_pinned() {
        let mut s = Snapshot::default();
        s.counters.insert("em.iterations".into(), 123);
        s.counters.insert("weird \"name\"\\with\nstuff".into(), 7);
        let mut v = ValueStat::default();
        v.record(0.5);
        v.record(-1.25);
        s.values.insert("em.loglik_delta".into(), v);
        // Never recorded: min/max are ±∞, which degrade to 0.
        s.values.insert("em.unused".into(), ValueStat::default());
        let mut t = TimerStat::default();
        for ns in [10u64, 20, 1_000_000, 3] {
            t.record_ns(ns);
        }
        s.timers.insert("kf.loglik".into(), t);
        // Zero-count timer: `min_ns` reads 0, not u64::MAX.
        s.timers.insert("idle".into(), TimerStat::default());
        s.add_derived("kf.cost_unit_ns", 41.75);

        let expected = concat!(
            r#"{"type":"counter","name":"em.iterations","value":123}"#,
            "\n",
            r#"{"type":"counter","name":"weird \"name\"\\with\u000astuff","value":7}"#,
            "\n",
            r#"{"type":"value","name":"em.loglik_delta","count":2,"sum":-0.75,"min":-1.25,"max":0.5,"last":-1.25,"mean":-0.375}"#,
            "\n",
            r#"{"type":"value","name":"em.unused","count":0,"sum":0,"min":0,"max":0,"last":0,"mean":0}"#,
            "\n",
            r#"{"type":"timer","name":"idle","count":0,"total_ns":0,"min_ns":0,"max_ns":0,"mean_ns":0,"p50_ns":0,"p99_ns":0,"buckets":[]}"#,
            "\n",
            r#"{"type":"timer","name":"kf.loglik","count":4,"total_ns":1000033,"min_ns":3,"max_ns":1000000,"mean_ns":250008.25,"p50_ns":15,"p99_ns":1000000,"buckets":[[2,1],[4,1],[5,1],[20,1]]}"#,
            "\n",
            r#"{"type":"derived","name":"kf.cost_unit_ns","value":41.75}"#,
            "\n",
        );
        assert_eq!(s.to_jsonl(), expected);
        assert_eq!(Snapshot::default().to_jsonl(), "");
    }

    #[test]
    fn delta_subtracts_counters_and_timers() {
        let mut a = Snapshot::default();
        a.counters.insert("c".into(), 10);
        let mut t = TimerStat::default();
        t.record_ns(100);
        a.timers.insert("t".into(), t);

        let mut b = a.clone();
        *b.counters.get_mut("c").unwrap() = 25;
        b.timers.get_mut("t").unwrap().record_ns(50);

        let d = b.delta(&a);
        assert_eq!(d.counter("c"), 15);
        assert_eq!(d.timer("t").unwrap().count, 1);
        assert_eq!(d.timer("t").unwrap().total_ns, 50);
    }
}
