//! Program names are part of the daemon's and the CLI's contract: the
//! spellings a client may submit, the display name a result carries,
//! and the result-store fingerprint built from that display name. A
//! store written by an older daemon must keep hitting, so every
//! accepted spelling is pinned here with both fingerprints.

use owl::serve::{resolve_program, ResultStore};
use owl::OwlConfig;

/// `(spelling, display name, fingerprint under OwlConfig::default(),
/// fingerprint under OwlConfig::quick())`.
#[rustfmt::skip]
const PINS: &[(&str, &str, &str, &str)] = &[
    ("Apache", "Apache", "a57a0b44357f6afd", "d86b40df5301d6c2"),
    ("apache", "Apache", "a57a0b44357f6afd", "d86b40df5301d6c2"),
    ("APACHE", "Apache", "a57a0b44357f6afd", "d86b40df5301d6c2"),
    ("Chrome", "Chrome", "77689b63339b2e8d", "d856f0f9d676b3c2"),
    ("chrome", "Chrome", "77689b63339b2e8d", "d856f0f9d676b3c2"),
    ("CHROME", "Chrome", "77689b63339b2e8d", "d856f0f9d676b3c2"),
    ("Libsafe", "Libsafe", "4006bcc51e1ac389", "bdb0710282b994bc"),
    ("libsafe", "Libsafe", "4006bcc51e1ac389", "bdb0710282b994bc"),
    ("LIBSAFE", "Libsafe", "4006bcc51e1ac389", "bdb0710282b994bc"),
    ("Linux", "Linux", "008506cf160d5ac5", "d84fdcf7c01abfb8"),
    ("linux", "Linux", "008506cf160d5ac5", "d84fdcf7c01abfb8"),
    ("LINUX", "Linux", "008506cf160d5ac5", "d84fdcf7c01abfb8"),
    ("Memcached", "Memcached", "8ddb6084b0e69f34", "b10e24ae1842b611"),
    ("memcached", "Memcached", "8ddb6084b0e69f34", "b10e24ae1842b611"),
    ("MEMCACHED", "Memcached", "8ddb6084b0e69f34", "b10e24ae1842b611"),
    ("MySQL", "MySQL", "c3ce1abb0317624d", "7cd0fd8aa0c021c8"),
    ("mysql", "MySQL", "c3ce1abb0317624d", "7cd0fd8aa0c021c8"),
    ("MYSQL", "MySQL", "c3ce1abb0317624d", "7cd0fd8aa0c021c8"),
    ("SSDB", "SSDB", "ba982de6f9285643", "b757eeea4d54a680"),
    ("ssdb", "SSDB", "ba982de6f9285643", "b757eeea4d54a680"),
    ("Ssdb", "SSDB", "ba982de6f9285643", "b757eeea4d54a680"),
    ("Bank", "Bank", "f15485d98867cb41", "4b516ded61056c2e"),
    ("bank", "Bank", "f15485d98867cb41", "4b516ded61056c2e"),
    ("BANK", "Bank", "f15485d98867cb41", "4b516ded61056c2e"),
    ("HeapRelay", "HeapRelay", "82396f75f1a72240", "5e4e4d9b13a524cd"),
    ("heaprelay", "HeapRelay", "82396f75f1a72240", "5e4e4d9b13a524cd"),
    ("HEAPRELAY", "HeapRelay", "82396f75f1a72240", "5e4e4d9b13a524cd"),
    ("heap-relay", "HeapRelay", "82396f75f1a72240", "5e4e4d9b13a524cd"),
    ("Heap-Relay", "HeapRelay", "82396f75f1a72240", "5e4e4d9b13a524cd"),
    ("HEAP-RELAY", "HeapRelay", "82396f75f1a72240", "5e4e4d9b13a524cd"),
    ("CacheRelay", "CacheRelay", "2dc15a620b56f998", "487595a368613eaf"),
    ("cacherelay", "CacheRelay", "2dc15a620b56f998", "487595a368613eaf"),
    ("CACHERELAY", "CacheRelay", "2dc15a620b56f998", "487595a368613eaf"),
    ("cache-relay", "CacheRelay", "2dc15a620b56f998", "487595a368613eaf"),
    ("Cache-Relay", "CacheRelay", "2dc15a620b56f998", "487595a368613eaf"),
    ("CACHE-RELAY", "CacheRelay", "2dc15a620b56f998", "487595a368613eaf"),
];

/// Names no surface accepts: the unnamed DoubleFetch model, near
/// misses of real spellings, and the empty string.
const UNKNOWN: &[&str] = &[
    "DoubleFetch",
    "doublefetch",
    "double-fetch",
    "nope",
    "",
    " Apache",
    "apache ",
    "heap_relay",
    "Heap Relay",
    "cache_relay",
    "banks",
    "Bank-",
    "-",
    "Memcache",
];

#[test]
fn every_accepted_spelling_keeps_its_name_and_fingerprints() {
    for &(spelling, name, default_fp, quick_fp) in PINS {
        let p = resolve_program(spelling).unwrap_or_else(|| panic!("`{spelling}` must resolve"));
        assert_eq!(p.name, name, "`{spelling}`");
        assert_eq!(
            ResultStore::fingerprint(&OwlConfig::default(), p.name),
            default_fp,
            "`{spelling}` under the default config"
        );
        assert_eq!(
            ResultStore::fingerprint(&OwlConfig::quick(), p.name),
            quick_fp,
            "`{spelling}` under the quick config"
        );
    }
}

#[test]
fn unknown_names_stay_unknown() {
    for &name in UNKNOWN {
        assert!(resolve_program(name).is_none(), "`{name}` must not resolve");
    }
}
