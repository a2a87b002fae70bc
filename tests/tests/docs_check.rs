//! The documentation gate: every checked-in markdown file is parsed and
//! its machine-checkable claims are verified against the code.
//!
//! * Relative links resolve to real files, and `#anchor` fragments to
//!   real headings (GitHub slugification).
//! * Every `$ multipath …` invocation inside a fenced `console`/`text`
//!   block parses through the real CLI parser
//!   (`multipath_cli::parse_invocation`) — documented commands cannot
//!   rot silently.
//! * Every `results/*.txt` file is written by a documented
//!   `$ multipath figures … > results/<file>` line.
//! * Every fenced ```json excerpt is valid JSON per the workspace's own
//!   parser, and any `schema` tag it carries is one the code emits.
//! * `CHANGES.md` PR entries are in strictly increasing order, so the
//!   change log reads chronologically.
//! * The quick budget EXPERIMENTS.md quotes is `Budget::quick()`, and the
//!   shutdown delay and request-size cap serving.md quotes are the
//!   serving layer's constants.

use multipath_testkit::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Workspace root (this crate lives at `<root>/tests`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate sits inside the workspace")
        .to_path_buf()
}

/// Every *.md tracked by git that is present in the working tree,
/// relative to the repo root. A tracked file deleted from the tree has no
/// claims left to check; a link to it still fails, since links resolve
/// against the disk.
fn checked_in_markdown() -> Vec<PathBuf> {
    let root = repo_root();
    let out = std::process::Command::new("git")
        .args(["ls-files", "-z", "*.md"])
        .current_dir(&root)
        .output()
        .expect("git ls-files");
    assert!(out.status.success(), "git ls-files failed");
    let mut files: Vec<PathBuf> = String::from_utf8(out.stdout)
        .unwrap()
        .split('\0')
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .filter(|p| root.join(p).exists())
        .collect();
    files.sort();
    assert!(
        files.iter().any(|p| p.ends_with("docs/serving.md")),
        "docs/serving.md must be checked in"
    );
    files
}

/// One fenced code block: the info string after ``` and the body lines.
struct Fence {
    info: String,
    lines: Vec<String>,
}

/// Split a markdown document into prose lines and fenced code blocks.
fn split_fences(text: &str) -> (Vec<String>, Vec<Fence>) {
    let mut prose = Vec::new();
    let mut fences = Vec::new();
    let mut current: Option<Fence> = None;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("```") {
            match current.take() {
                Some(fence) => fences.push(fence),
                None => {
                    current = Some(Fence {
                        info: rest.trim().to_owned(),
                        lines: Vec::new(),
                    })
                }
            }
        } else if let Some(fence) = current.as_mut() {
            fence.lines.push(line.to_owned());
        } else {
            prose.push(line.to_owned());
        }
    }
    assert!(current.is_none(), "unterminated code fence");
    (prose, fences)
}

/// GitHub heading slug: lowercase, drop punctuation, spaces to hyphens;
/// duplicate headings get `-1`, `-2`, … suffixes.
fn heading_slugs(prose: &[String]) -> Vec<String> {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut slugs = Vec::new();
    for line in prose {
        let Some(heading) = line.trim_start().strip_prefix('#') else {
            continue;
        };
        let title = heading.trim_start_matches('#').trim();
        let mut slug = String::new();
        for ch in title.chars() {
            match ch {
                'A'..='Z' => slug.push(ch.to_ascii_lowercase()),
                'a'..='z' | '0'..='9' | '_' | '-' => slug.push(ch),
                ' ' => slug.push('-'),
                _ => {}
            }
        }
        let n = seen.entry(slug.clone()).or_insert(0);
        if *n > 0 {
            slug = format!("{slug}-{n}");
        }
        *n += 1;
        slugs.push(slug);
    }
    slugs
}

/// Extract `[text](target)` link targets from one prose line, skipping
/// image links and inline code spans.
fn link_targets(line: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = line.as_bytes();
    let mut in_code = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'`' => in_code = !in_code,
            b'[' if !in_code => {
                if let Some(close) = line[i..].find("](") {
                    let start = i + close + 2;
                    if let Some(end) = line[start..].find(')') {
                        targets.push(line[start..start + end].to_owned());
                        i = start + end;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    targets
}

#[test]
fn relative_links_and_anchors_resolve() {
    let root = repo_root();
    let files = checked_in_markdown();
    // Pre-compute every file's heading slugs so cross-file anchors can
    // be checked in one pass.
    let mut slugs: BTreeMap<PathBuf, Vec<String>> = BTreeMap::new();
    for file in &files {
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        let (prose, _) = split_fences(&text);
        slugs.insert(file.clone(), heading_slugs(&prose));
    }
    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        let (prose, _) = split_fences(&text);
        for line in &prose {
            for target in link_targets(line) {
                if target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with("mailto:")
                {
                    continue;
                }
                let (path_part, anchor) = match target.split_once('#') {
                    Some((p, a)) => (p, Some(a)),
                    None => (target.as_str(), None),
                };
                // Resolve relative to the linking file's directory.
                let resolved = if path_part.is_empty() {
                    file.clone()
                } else {
                    let joined = file.parent().unwrap_or(Path::new("")).join(path_part);
                    let mut clean = PathBuf::new();
                    for part in joined.components() {
                        match part {
                            std::path::Component::ParentDir => {
                                clean.pop();
                            }
                            std::path::Component::CurDir => {}
                            other => clean.push(other),
                        }
                    }
                    clean
                };
                if !root.join(&resolved).exists() {
                    broken.push(format!("{}: broken link {target}", file.display()));
                    continue;
                }
                if let Some(anchor) = anchor {
                    let ok = slugs
                        .get(&resolved)
                        .is_some_and(|s| s.iter().any(|slug| slug == anchor));
                    if !ok {
                        broken.push(format!(
                            "{}: link {target} names a heading that does not exist",
                            file.display()
                        ));
                    }
                }
            }
        }
    }
    assert!(broken.is_empty(), "broken links:\n{}", broken.join("\n"));
}

/// Every documented `$ multipath …` command line in a fenced
/// `console`/`text` block: the file it is in and its text after
/// `multipath `.
fn documented_commands() -> Vec<(PathBuf, String)> {
    let root = repo_root();
    let mut commands = Vec::new();
    for file in checked_in_markdown() {
        let text = std::fs::read_to_string(root.join(&file)).unwrap();
        let (_, fences) = split_fences(&text);
        for fence in fences {
            if fence.info != "console" && fence.info != "text" {
                continue;
            }
            for line in &fence.lines {
                if let Some(rest) = line.trim().strip_prefix("$ multipath ") {
                    commands.push((file.clone(), rest.to_owned()));
                }
            }
        }
    }
    commands
}

#[test]
fn documented_cli_invocations_parse() {
    let commands = documented_commands();
    for (file, rest) in &commands {
        // Validate up to the first shell operator: docs may
        // pipe or redirect the output.
        let args: Vec<String> = rest
            .split_whitespace()
            .take_while(|tok| !matches!(*tok, "|" | ">" | ">>" | "2>" | "&&" | "&" | "<"))
            .map(str::to_owned)
            .collect();
        if let Err(msg) = multipath_cli::parse_invocation(&args) {
            panic!(
                "{}: documented command does not parse:\n  $ multipath {rest}\n  error: {msg}",
                file.display()
            );
        }
    }
    assert!(
        commands.len() >= 8,
        "expected at least 8 documented `$ multipath` invocations, found {}",
        commands.len()
    );
}

#[test]
fn every_result_file_has_a_documented_figures_command() {
    let written: Vec<String> = documented_commands()
        .into_iter()
        .filter_map(|(_, rest)| {
            let (command, out) = rest.split_once(" > ")?;
            command
                .starts_with("figures ")
                .then(|| out.trim().to_owned())
        })
        .collect();
    let results = std::fs::read_dir(repo_root().join("results")).expect("results/");
    for entry in results {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".txt") {
            let path = format!("results/{name}");
            assert!(
                written.contains(&path),
                "no documented `$ multipath figures … > {path}` line"
            );
        }
    }
}

#[test]
fn json_excerpts_are_valid_and_carry_known_schemas() {
    const KNOWN_SCHEMAS: [&str; 7] = [
        "multipath-stats/v1",
        "multipath-explain/v1",
        "multipath-serve-error/v1",
        "multipath-serve-health/v1",
        "multipath-serve-metrics/v1",
        "multipath-serve-cell/v1",
        "multipath-serve-sweep/v1",
    ];
    let root = repo_root();
    let mut excerpts = 0usize;
    let mut validated_files = Vec::new();
    for file in checked_in_markdown() {
        let text = std::fs::read_to_string(root.join(&file)).unwrap();
        let (_, fences) = split_fences(&text);
        let mut any = false;
        for fence in fences {
            if fence.info != "json" {
                continue;
            }
            let body = fence.lines.join("\n");
            let doc = Json::parse(&body).unwrap_or_else(|err| {
                panic!("{}: invalid json excerpt: {err}\n{body}", file.display())
            });
            if let Some(schema) = doc.get("schema").and_then(Json::as_str) {
                assert!(
                    KNOWN_SCHEMAS.contains(&schema),
                    "{}: excerpt claims unknown schema {schema:?}",
                    file.display()
                );
            }
            excerpts += 1;
            any = true;
        }
        if any {
            validated_files.push(file);
        }
    }
    // The two documents whose wire formats the docs spell out must keep
    // their excerpts machine-valid.
    for required in ["docs/observability.md", "docs/serving.md"] {
        assert!(
            validated_files.iter().any(|f| f.ends_with(required)),
            "{required} must contain at least one ```json excerpt (found {excerpts} total)"
        );
    }
}

#[test]
fn changelog_entries_are_in_order() {
    let text = std::fs::read_to_string(repo_root().join("CHANGES.md")).unwrap();
    let mut prs = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("- PR ") else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let n: u64 = digits
            .parse()
            .unwrap_or_else(|_| panic!("malformed changelog entry: {line}"));
        prs.push(n);
    }
    assert!(!prs.is_empty(), "CHANGES.md has no PR entries");
    for pair in prs.windows(2) {
        assert!(
            pair[0] < pair[1],
            "CHANGES.md entries out of order: PR {} appears before PR {}",
            pair[0],
            pair[1]
        );
    }
}

/// The number written just before `unit` in `text` (`"4,000 commits"`).
fn quoted_number(text: &str, unit: &str) -> Option<u64> {
    let head = text[..text.find(unit)?].trim_end();
    let start = head
        .rfind(|c: char| !c.is_ascii_digit() && c != ',')
        .map_or(0, |i| i + 1);
    head[start..].replace(',', "").parse().ok()
}

#[test]
fn quoted_quick_budget_matches_the_code() {
    let quick = multipath_bench::Budget::quick();
    let text = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
    // Quotes wrap across lines; compare on whitespace-normalised prose.
    let prose = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut quotes = 0;
    for marker in ["`MULTIPATH_BUDGET=quick`", "`Budget::quick()`"] {
        for (at, _) in prose.match_indices(marker) {
            let window: String = prose[at + marker.len()..].chars().take(60).collect();
            let Some(commits) = quoted_number(&window, " commits") else {
                continue;
            };
            assert_eq!(
                commits, quick.committed_per_program,
                "EXPERIMENTS.md quotes {commits} commits for the quick budget: {window}"
            );
            if let Some(mixes) = quoted_number(&window, " mixes") {
                assert_eq!(
                    mixes, quick.mixes as u64,
                    "EXPERIMENTS.md quotes {mixes} mixes for the quick budget: {window}"
                );
            }
            quotes += 1;
        }
    }
    assert!(
        quotes > 0,
        "EXPERIMENTS.md no longer quotes the quick budget"
    );
}

#[test]
fn quoted_serve_limits_match_the_code() {
    let text = std::fs::read_to_string(repo_root().join("docs/serving.md")).unwrap();
    let prose = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let shutdown = "shutdown is noticed within";
    let at = prose
        .find(shutdown)
        .expect("serving.md quotes the shutdown delay")
        + shutdown.len();
    let window: String = prose[at..].chars().take(20).collect();
    assert_eq!(
        quoted_number(&window, " ms").map(u128::from),
        Some(multipath_serve::SHUTDOWN_CHECK.as_millis()),
        "serving.md quotes the shutdown delay: {window}"
    );
    assert_eq!(
        quoted_number(&prose, " commits × programs"),
        Some(multipath_serve::request::MAX_COMMITS_PER_REQUEST),
        "serving.md quotes the request-size cap"
    );
    let sampled = "times one simulated cycle in ";
    let at = prose
        .find(sampled)
        .expect("serving.md quotes the host profile's sampling period")
        + sampled.len();
    let window: String = prose[at..].chars().take(20).collect();
    let period: String = window.chars().take_while(char::is_ascii_digit).collect();
    assert_eq!(
        period.parse().ok(),
        Some(multipath_core::StageProfile::SAMPLE_PERIOD),
        "serving.md quotes the sampling period: {window}"
    );
}
