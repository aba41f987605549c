//! Deterministic fault injection for Gen-T.
//!
//! `gent-faults` provides *failpoints*: named sites in production code where a
//! test, bench, or soak harness can deterministically inject failures. A site
//! is identified by a stable string key (e.g. `store.save.rename`) and armed
//! with a [`Trigger`] describing *when* it fires: on every hit, on exactly the
//! n-th hit, or with a seeded per-hit probability.
//!
//! The facility follows the `gent-obs` kill-switch pattern: a single relaxed
//! [`AtomicBool`] gates the whole layer. While disabled (the default), every
//! failpoint check is one atomic load plus a predictable branch — the
//! `faults_overhead` bench gates this at ≤1.05× like `obs_overhead`. The
//! site registry is only consulted once the switch is on.
//!
//! Production code must only reach this crate through the [`failpoint!`] and
//! [`fail_io!`] macros, which embed the kill-switch guard; CI greps for any
//! other `gent_faults::` call in production sources. Harness code (tests,
//! benches, the soak driver) uses the control API directly: [`set_enabled`],
//! [`arm`], [`arm_spec`], [`reset`], [`fired`].
//!
//! ```
//! gent_faults::reset();
//! gent_faults::arm("demo.site", gent_faults::Trigger::NthHit(2));
//! gent_faults::set_enabled(true);
//! assert!(!gent_faults::failpoint!("demo.site")); // hit 1: no fire
//! assert!(gent_faults::failpoint!("demo.site")); // hit 2: fires
//! assert!(!gent_faults::failpoint!("demo.site")); // nth-hit fires once
//! gent_faults::reset();
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// When an armed failpoint site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire exactly once, on the n-th hit (1-based) of the site.
    NthHit(u64),
    /// Fire independently on each hit with the given probability in `[0, 1]`,
    /// drawn from a per-site stream seeded by [`set_seed`] — the same seed
    /// replays the same firing pattern.
    Probability(f64),
}

struct SiteState {
    trigger: Trigger,
    hits: u64,
    fired: u64,
    rng: u64,
}

/// Global kill switch, relaxed like `gent_obs::enabled` — the only state a
/// disabled failpoint check ever touches.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Total failpoint checks that reached the slow path (enabled layer). Lets the
/// overhead bench prove its workload actually traverses instrumented sites.
static CHECKS: AtomicU64 = AtomicU64::new(0);
static SEED: AtomicU64 = AtomicU64::new(0x6e7f_a1d5_c3b2_9081);

static SITES: Mutex<Option<HashMap<String, SiteState>>> = Mutex::new(None);

/// Turn the fault layer on or off. Off (the default) makes every failpoint a
/// no-op branch; armed sites are kept but dormant.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the fault layer is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Seed the probability streams. Each armed `Probability` site derives its own
/// stream from this seed and its key, so firing patterns are reproducible and
/// independent across sites. Takes effect for sites armed afterwards.
pub fn set_seed(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
}

/// Arm `site` with `trigger`, replacing any previous arming (and resetting the
/// site's hit/fired counters).
pub fn arm(site: &str, trigger: Trigger) {
    let mut guard = SITES.lock().unwrap_or_else(|e| e.into_inner());
    let map = guard.get_or_insert_with(HashMap::new);
    let rng = splitmix64(SEED.load(Ordering::Relaxed) ^ key_hash(site));
    map.insert(site.to_string(), SiteState { trigger, hits: 0, fired: 0, rng });
}

/// Disarm every site and disable the layer. Harnesses call this on exit so
/// process-global fault state never leaks across tests.
pub fn reset() {
    set_enabled(false);
    let mut guard = SITES.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

/// How many times `site` has fired since it was armed.
pub fn fired(site: &str) -> u64 {
    site_stat(site).map(|(_, f)| f).unwrap_or(0)
}

/// How many times `site` has been hit (fired or not) since it was armed.
pub fn hits(site: &str) -> u64 {
    site_stat(site).map(|(h, _)| h).unwrap_or(0)
}

/// Total failpoint checks that reached the enabled slow path, process-wide.
/// Monotone; used by the overhead bench to prove coverage.
pub fn checks() -> u64 {
    CHECKS.load(Ordering::Relaxed)
}

/// Snapshot of `(site, hits, fired)` for every armed site, sorted by key.
pub fn snapshot() -> Vec<(String, u64, u64)> {
    let guard = SITES.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<(String, u64, u64)> = guard
        .as_ref()
        .map(|map| map.iter().map(|(k, s)| (k.clone(), s.hits, s.fired)).collect())
        .unwrap_or_default();
    out.sort();
    out
}

/// Arm sites from a compact spec string: comma- or semicolon-separated
/// `site=trigger` entries where trigger is `always`, `nth:N`, or `p:F`
/// (alias `prob:F`). Example: `store.load.read=nth:3,serve.conn.reset=p:0.02`.
/// Does not flip the kill switch; callers enable separately.
pub fn arm_spec(spec: &str) -> Result<(), String> {
    for entry in spec.split([',', ';']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, trig) = entry
            .split_once('=')
            .ok_or_else(|| format!("fault spec entry `{entry}` is missing `=`"))?;
        let trigger = parse_trigger(trig.trim())
            .ok_or_else(|| format!("fault spec entry `{entry}` has an invalid trigger"))?;
        arm(site.trim(), trigger);
    }
    Ok(())
}

fn parse_trigger(s: &str) -> Option<Trigger> {
    if s.eq_ignore_ascii_case("always") {
        return Some(Trigger::Always);
    }
    if let Some(n) = s.strip_prefix("nth:") {
        return n.parse::<u64>().ok().map(Trigger::NthHit);
    }
    let p = s.strip_prefix("p:").or_else(|| s.strip_prefix("prob:"))?;
    let p: f64 = p.parse().ok()?;
    (0.0..=1.0).contains(&p).then_some(Trigger::Probability(p))
}

/// Slow-path check: records the hit and decides whether `site` fires now.
/// Production code never calls this directly — it goes through [`failpoint!`],
/// which performs the kill-switch load first.
#[doc(hidden)]
pub fn active_slow(site: &str) -> bool {
    CHECKS.fetch_add(1, Ordering::Relaxed);
    let mut guard = SITES.lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = guard.as_mut().and_then(|map| map.get_mut(site)) else {
        return false;
    };
    state.hits += 1;
    let fire = match state.trigger {
        Trigger::Always => true,
        Trigger::NthHit(n) => state.hits == n,
        Trigger::Probability(p) => {
            state.rng = splitmix64(state.rng);
            // Top 53 bits → uniform f64 in [0, 1).
            ((state.rng >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
        }
    };
    if fire {
        state.fired += 1;
    }
    fire
}

/// Build the `std::io::Error` injected at IO-boundary sites, tagged with the
/// site key so traces and test assertions can tell injected failures apart.
#[doc(hidden)]
pub fn injected_io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

/// Checks a failpoint: evaluates to `true` when the fault layer is enabled and
/// the named site's trigger fires on this hit. This is the only sanctioned
/// entry from production code (CI-enforced); the kill-switch load comes first,
/// so the disabled cost is one relaxed atomic read.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::enabled() && $crate::active_slow($site)
    };
}

/// IO-boundary failpoint: evaluates to `Some(io::Error)` when the site fires,
/// `None` otherwise. Same guard discipline as [`failpoint!`].
#[macro_export]
macro_rules! fail_io {
    ($site:expr) => {
        if $crate::failpoint!($site) {
            ::std::option::Option::Some($crate::injected_io_error($site))
        } else {
            ::std::option::Option::None
        }
    };
}

fn site_stat(site: &str) -> Option<(u64, u64)> {
    let guard = SITES.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().and_then(|map| map.get(site)).map(|s| (s.hits, s.fired))
}

fn key_hash(key: &str) -> u64 {
    // FNV-1a, enough to decorrelate per-site probability streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Fault state is process-global; serialize tests that touch it.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_layer_never_fires() {
        let _g = locked();
        reset();
        arm("t.off", Trigger::Always);
        assert!(!failpoint!("t.off"));
        assert_eq!(fired("t.off"), 0);
        reset();
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _g = locked();
        reset();
        arm("t.nth", Trigger::NthHit(3));
        set_enabled(true);
        let fires: Vec<bool> = (0..5).map(|_| failpoint!("t.nth")).collect();
        assert_eq!(fires, vec![false, false, true, false, false]);
        assert_eq!(hits("t.nth"), 5);
        assert_eq!(fired("t.nth"), 1);
        reset();
    }

    #[test]
    fn always_fires_every_hit_and_unarmed_sites_do_not() {
        let _g = locked();
        reset();
        arm("t.always", Trigger::Always);
        set_enabled(true);
        assert!(failpoint!("t.always") && failpoint!("t.always"));
        assert!(!failpoint!("t.unarmed"));
        assert_eq!(fired("t.always"), 2);
        reset();
    }

    #[test]
    fn probability_is_seed_deterministic_and_roughly_calibrated() {
        let _g = locked();
        reset();
        set_seed(8);
        arm("t.prob", Trigger::Probability(0.25));
        set_enabled(true);
        let first: Vec<bool> = (0..64).map(|_| failpoint!("t.prob")).collect();
        set_seed(8);
        arm("t.prob", Trigger::Probability(0.25));
        let second: Vec<bool> = (0..64).map(|_| failpoint!("t.prob")).collect();
        assert_eq!(first, second, "same seed must replay the same pattern");
        let n = first.iter().filter(|f| **f).count();
        assert!((4..=28).contains(&n), "p=0.25 over 64 hits fired {n} times");
        reset();
    }

    #[test]
    fn spec_string_arms_multiple_sites() {
        let _g = locked();
        reset();
        arm_spec("a.x=always, b.y=nth:2; c.z=p:0.5").unwrap();
        set_enabled(true);
        assert!(failpoint!("a.x"));
        assert!(!failpoint!("b.y") && failpoint!("b.y"));
        assert!(arm_spec("broken").is_err());
        assert!(arm_spec("site=nth:x").is_err());
        assert!(arm_spec("site=p:1.5").is_err());
        reset();
    }

    #[test]
    fn fail_io_tags_the_site() {
        let _g = locked();
        reset();
        arm("t.io", Trigger::Always);
        set_enabled(true);
        let err = fail_io!("t.io").expect("armed site fires");
        assert!(err.to_string().contains("t.io"));
        assert!(fail_io!("t.other").is_none());
        reset();
    }
}
