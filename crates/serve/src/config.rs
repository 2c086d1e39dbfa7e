//! The watched operator config: which detector, what threshold, whether
//! mitigation is armed.
//!
//! The daemon never restarts to change a knob. An operator edits the
//! config file; at the next period boundary the supervisor polls the
//! file ([`ConfigWatcher::poll`]), and if its *content* changed (a CRC
//! over the bytes — mtimes don't exist in sim-time) the new settings are
//! parsed and applied. A malformed edit is counted and ignored: the
//! daemon keeps detecting with the last good config rather than dying
//! mid-attack because of a typo.
//!
//! # Format
//!
//! `key = value` lines; blank lines and `#` comments are skipped:
//!
//! ```text
//! detector = syndog          # syndog | syn-cusum | ewma | fin-pair
//! threshold = 1.05           # the CUSUM decision threshold N
//! mitigation = on            # on | off
//! throttle_key = fingerprint # mac | prefix | fingerprint
//! ```
//!
//! Every key is optional; omitted keys keep their defaults (the paper's
//! detector and threshold, mitigation off, MAC throttle keys).

use std::path::{Path, PathBuf};

use syndog::{AnyDetector, DetectorKind, SynDogConfig};
use syndog_router::crc32;
use syndog_router::{KeyMode, MitigationPolicy};

/// The hot-reloadable operator settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Which detection strategy runs at every stub.
    pub detector: DetectorKind,
    /// The decision threshold `N`.
    pub threshold: f64,
    /// Whether source-end mitigation is armed.
    pub mitigation: bool,
    /// Which key family the mitigation engine throttles under.
    pub throttle_key: KeyMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            detector: DetectorKind::Syndog,
            threshold: SynDogConfig::paper_default().threshold,
            mitigation: false,
            throttle_key: KeyMode::Mac,
        }
    }
}

impl ServeConfig {
    /// Parses the `key = value` format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a line-numbered message for the first malformed line.
    pub fn parse(text: &str) -> Result<ServeConfig, String> {
        let mut config = ServeConfig::default();
        for (number, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |why: String| format!("line {}: {why}", number + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "detector" => {
                    config.detector = value
                        .parse()
                        .map_err(|_| at(format!("unknown detector `{value}`")))?;
                }
                "threshold" => {
                    let n: f64 = value
                        .parse()
                        .map_err(|_| at(format!("bad threshold `{value}`")))?;
                    if !n.is_finite() || n <= 0.0 {
                        return Err(at(format!("threshold `{value}` must be positive")));
                    }
                    config.threshold = n;
                }
                "mitigation" => {
                    config.mitigation = match value {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        other => {
                            return Err(at(format!("mitigation must be on/off, got `{other}`")))
                        }
                    };
                }
                "throttle_key" => {
                    config.throttle_key = value.parse().map_err(|why: String| at(why))?;
                }
                other => return Err(at(format!("unknown key `{other}`"))),
            }
        }
        Ok(config)
    }

    /// Renders the config in its own file format.
    pub fn render(&self) -> String {
        format!(
            "detector = {}\nthreshold = {}\nmitigation = {}\nthrottle_key = {}\n",
            self.detector.name(),
            self.threshold,
            if self.mitigation { "on" } else { "off" },
            self.throttle_key,
        )
    }

    /// Builds the detector these settings describe (paper defaults with
    /// the configured threshold).
    pub fn build_detector(&self) -> AnyDetector {
        self.detector
            .build(SynDogConfig::paper_default().with_threshold(self.threshold))
    }

    /// Builds the mitigation policy these settings describe (paper
    /// defaults under the configured throttle-key family).
    pub fn build_policy(&self) -> MitigationPolicy {
        MitigationPolicy::paper_default().with_key_mode(self.throttle_key)
    }
}

/// Polls a config file for *content* changes, applying them only when
/// the file parses.
#[derive(Debug)]
pub struct ConfigWatcher {
    path: PathBuf,
    config: ServeConfig,
    /// CRC of the last content seen (good or bad) — each edit is parsed
    /// once, not once per period.
    seen: Option<u32>,
    reloads: u64,
    reload_errors: u64,
}

impl ConfigWatcher {
    /// Watches `path`, starting from `initial`. The file need not exist
    /// yet; it is read on each [`ConfigWatcher::poll`].
    pub fn new(path: &Path, initial: ServeConfig) -> Self {
        ConfigWatcher {
            path: path.to_path_buf(),
            config: initial,
            seen: None,
            reloads: 0,
            reload_errors: 0,
        }
    }

    /// Successful reloads so far.
    pub fn reloads(&self) -> u64 {
        self.reloads
    }

    /// Rejected (unparseable) edits so far.
    pub fn reload_errors(&self) -> u64 {
        self.reload_errors
    }

    /// Re-reads the file; returns the new config if its content changed
    /// *and* parses. An unreadable file (not yet written, transiently
    /// locked) or a malformed edit leaves the current config in force —
    /// the latter bumps [`ConfigWatcher::reload_errors`].
    pub fn poll(&mut self) -> Option<ServeConfig> {
        let text = std::fs::read_to_string(&self.path).ok()?;
        let hash = crc32(text.as_bytes());
        if self.seen == Some(hash) {
            return None;
        }
        self.seen = Some(hash);
        match ServeConfig::parse(&text) {
            Ok(config) => {
                self.reloads += 1;
                self.config = config;
                Some(config)
            }
            Err(_) => {
                self.reload_errors += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("syndog-serve-config-{}-{name}", std::process::id()))
    }

    #[test]
    fn parse_and_render_round_trip() {
        let text =
            "detector = ewma\nthreshold = 2.5\nmitigation = on\nthrottle_key = fingerprint\n";
        let config = ServeConfig::parse(text).unwrap();
        assert_eq!(config.detector, DetectorKind::Ewma);
        assert_eq!(config.threshold, 2.5);
        assert!(config.mitigation);
        assert_eq!(config.throttle_key, KeyMode::Fingerprint);
        assert_eq!(config.build_policy().key_mode, KeyMode::Fingerprint);
        assert_eq!(ServeConfig::parse(&config.render()).unwrap(), config);
        // Comments, blanks and partial files are fine.
        let partial = ServeConfig::parse("# note\n\nthreshold = 3.0\n").unwrap();
        assert_eq!(partial.detector, DetectorKind::Syndog);
        assert_eq!(partial.threshold, 3.0);
        assert!(!partial.mitigation);
        assert_eq!(partial.throttle_key, KeyMode::Mac, "default keys by MAC");
    }

    #[test]
    fn parse_rejects_bad_lines() {
        for (bad, why) in [
            ("detector = magic", "unknown detector"),
            ("threshold = -1", "must be positive"),
            ("threshold = n", "bad threshold"),
            ("mitigation = maybe", "on/off"),
            ("throttle_key = magic", "unknown throttle key"),
            ("cheese = brie", "unknown key"),
            ("threshold", "key = value"),
        ] {
            let err = ServeConfig::parse(bad).unwrap_err();
            assert!(err.contains(why), "`{bad}` → `{err}`");
        }
    }

    #[test]
    fn watcher_applies_content_changes_once() {
        let path = temp_file("apply");
        let mut watcher = ConfigWatcher::new(&path, ServeConfig::default());
        // No file yet: nothing happens.
        assert_eq!(watcher.poll(), None);
        std::fs::write(&path, "threshold = 2.0\n").unwrap();
        let updated = watcher.poll().expect("first read applies");
        assert_eq!(updated.threshold, 2.0);
        assert_eq!(watcher.reloads(), 1);
        // Same content again: no re-apply.
        assert_eq!(watcher.poll(), None);
        assert_eq!(watcher.reloads(), 1);
        // A real change applies.
        std::fs::write(&path, "threshold = 2.0\nmitigation = on\n").unwrap();
        assert!(watcher.poll().unwrap().mitigation);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn watcher_keeps_old_config_on_malformed_edits() {
        let path = temp_file("malformed");
        std::fs::write(&path, "threshold = 2.0\n").unwrap();
        let mut watcher = ConfigWatcher::new(&path, ServeConfig::default());
        assert!(watcher.poll().is_some());
        std::fs::write(&path, "threshold = oops\n").unwrap();
        assert_eq!(watcher.poll(), None);
        assert_eq!(watcher.config.threshold, 2.0, "old config survives");
        assert_eq!(watcher.reload_errors(), 1);
        // The bad content is only counted once…
        assert_eq!(watcher.poll(), None);
        assert_eq!(watcher.reload_errors(), 1);
        // …and a subsequent fix applies.
        std::fs::write(&path, "threshold = 4.0\n").unwrap();
        assert_eq!(watcher.poll().unwrap().threshold, 4.0);
        std::fs::remove_file(&path).ok();
    }
}
