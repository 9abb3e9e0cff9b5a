//! What the benchmark needs from the operating system and the checkout:
//! the provenance stamp, peak resident memory, the allocator settings, and
//! closing a listener that another thread is blocked accepting on.

use serde::Value;
use std::collections::BTreeMap;
use std::os::fd::AsRawFd;
use std::path::Path;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// Linux `struct rusage` (x86-64 / aarch64 layout: two timevals, 14 longs).
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn shutdown(fd: i32, how: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
/// glibc's largest `M_MMAP_THRESHOLD` on 64-bit targets.
const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
const TRIM_THRESHOLD: i32 = 1 << 30;

/// The allocator settings [`keep_freed_memory`] makes, for the provenance.
pub const MALLOC_SETTINGS: &str = "mmap_threshold=32MiB,trim_threshold=1GiB";

/// Keep freed heap memory in the process instead of handing it back to the
/// kernel. With glibc's defaults every large buffer a serving request
/// allocates (its half-megabyte reply line, its sample tensors) is a fresh
/// `mmap`, about 600 page faults per `serve-region` request. On a virtual
/// machine whose kernel reports free pages to the host, what a fault costs
/// can depend on the host's load: ten runs of the same code spread
/// `serve-region`'s median latency by 17% of the median with the defaults
/// and by 3% with these settings. Call before any thread starts.
pub fn keep_freed_memory() {
    // SAFETY: `mallopt` only changes allocator parameters; no thread is
    // allocating concurrently this early in `main`.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) == 1
            && mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    };
    assert!(ok, "mallopt rejected {MALLOC_SETTINGS}");
}

const POLLIN: i16 = 1;

const RUSAGE_SELF: i32 = 0;
const SHUT_RDWR: i32 = 2;

/// Peak resident set size of this process in MB (`ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // above, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.ru_maxrss as f64 / 1024.0
}

/// Shut a listening socket down so a thread blocked in `accept` on it
/// returns with an error (Linux wakes it with `EINVAL`).
pub fn shutdown_listener(listener: &std::net::TcpListener) {
    // SAFETY: the descriptor is owned by `listener`, which outlives the
    // call; `shutdown` neither closes nor frees it.
    unsafe {
        shutdown(listener.as_raw_fd(), SHUT_RDWR);
    }
}

/// Wait until `socket` has data to read or `timeout` passes; true when
/// readable. `ppoll` sleeps on a high-resolution timer, so an open-loop
/// send due at the end of the wait is not pushed to the next scheduler
/// tick the way a socket read timeout would push it.
pub fn wait_readable(socket: &impl AsRawFd, timeout: std::time::Duration) -> bool {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live for the call, `nfds` is 1 to match the
    // single `PollFd`, and a null signal mask is allowed.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    rc > 0
}

/// The CPU's brand string from `cpuid`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        let mut bytes = Vec::with_capacity(48);
        #[allow(unused_unsafe)]
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            // SAFETY: `cpuid` is available on every x86-64 CPU and the
            // brand-string leaves only read processor identification.
            let r = unsafe { __cpuid(leaf) };
            for word in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        let s = String::from_utf8_lossy(&bytes);
        s.trim_matches(|c: char| c == '\0' || c.is_whitespace())
            .to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// SIMD features the running CPU offers, and those compiled in.
fn target_features() -> (Vec<&'static str>, Vec<&'static str>) {
    let mut detected = Vec::new();
    let mut compiled = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) { detected.push($f); }
                if cfg!(target_feature = $f) { compiled.push($f); }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "f16c", "avx512f", "avx512bw", "avx512vl");
    }
    (detected, compiled)
}

/// The commit checked out at `root`, read from `.git` without running git
/// (`none` outside a git checkout).
fn git_head(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every source file the benchmark builds from and the cargo
/// configuration that sets its codegen, so two results with the same hash
/// measured the same code whether or not the tree was committed.
fn tree_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let Ok(ft) = e.file_type() else { continue };
            let name = e.file_name();
            if ft.is_dir() && name != "target" && name != ".bench_build" {
                walk(&p, out);
            } else if ft.is_file() {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "vendor", "orbitbench"] {
        walk(&root.join(top), &mut files);
    }
    for top in ["Cargo.toml", "Cargo.lock", ".cargo/config.toml"] {
        files.push(root.join(top));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        eat(rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

/// Provenance of a result: code, machine, toolchain and the switches that
/// change the kernels the program runs.
pub fn provenance(root: &Path) -> Value {
    let (detected, compiled) = target_features();
    let env = |k: &str| std::env::var(k).map_or(Value::Null, Value::String);
    let strs =
        |v: Vec<&str>| Value::Array(v.into_iter().map(|s| Value::String(s.into())).collect());
    let mut m = BTreeMap::new();
    m.insert("git_head".into(), Value::String(git_head(root)));
    m.insert("tree_hash".into(), Value::String(tree_hash(root)));
    m.insert("cpu_model".into(), Value::String(cpu_model()));
    m.insert(
        "nproc".into(),
        Value::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
    );
    m.insert(
        "rustc".into(),
        Value::String(env!("ORBITBENCH_RUSTC_VERSION").into()),
    );
    m.insert(
        "rustflags".into(),
        Value::String(env!("ORBITBENCH_RUSTFLAGS").into()),
    );
    m.insert("cpu_features".into(), strs(detected));
    m.insert("compiled_features".into(), strs(compiled));
    m.insert("ORBIT2_DISABLE_SIMD".into(), env("ORBIT2_DISABLE_SIMD"));
    m.insert("ORBIT2_DISABLE_POOL".into(), env("ORBIT2_DISABLE_POOL"));
    m.insert("malloc".into(), Value::String(MALLOC_SETTINGS.into()));
    Value::Object(m)
}
