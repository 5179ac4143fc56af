//! Interactive localized-mining session over stdin/stdout.
//!
//! Queries in the paper's language run through a caching [`QuerySession`]
//! (threshold refinements over the same region reuse the resolved subset).
//! Meta-commands:
//!
//! ```text
//! :help              this text
//! :schema            attributes and domains
//! :plans             Table 4 (the six plans)
//! :explain <query>   all six cost estimates + the chosen plan
//! :analyze <query>   EXPLAIN ANALYZE: execute + predicted-vs-actual
//! :advise            suggested thresholds and paradox-rich subsets
//! :stats             session cache statistics
//! :timeout <ms>|off  set/clear the per-query deadline (bare: show it)
//! :cancel            arm the cancel token: the next query is canceled
//! :save <path>       write the index to a binary snapshot (atomic)
//! :load <path>       replace the session's index from a snapshot
//! :quit              leave
//! ```
//!
//! A query prefixed with `EXPLAIN ANALYZE` is shorthand for `:analyze`.
//! A timed-out or canceled query reports the operator it stopped in and
//! leaves the session fully usable (nothing partial is cached).

use colarm::{Colarm, PlanKind, QueryRequest, QuerySession};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

/// Run the REPL until EOF or `:quit`, with an optional initial
/// per-query deadline (the CLI's `--timeout-ms`).
pub fn run(mut colarm: Arc<Colarm>, timeout: Option<Duration>) -> Result<(), String> {
    let mut schema = colarm.index().dataset().schema().clone();
    let mut session = QuerySession::new(colarm.clone());
    session.set_timeout(timeout);
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    println!(
        "COLARM repl — {} records, {} MIPs. Enter REPORT queries; :help for commands.",
        colarm.index().dataset().num_records(),
        colarm.index().num_mips()
    );
    loop {
        print!("colarm> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => return Err(format!("stdin: {e}")),
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ":quit" | ":q" | ":exit" => break,
            ":help" => println!("{}", HELP),
            ":schema" => {
                for attr in schema.attributes() {
                    println!(
                        "  {} ({} values): {}",
                        attr.name(),
                        attr.domain_size(),
                        attr.values().join(", ")
                    );
                }
            }
            ":plans" => {
                for plan in PlanKind::ALL {
                    println!(
                        "  {:<10} {:<70} {}",
                        plan.name(),
                        plan.optimization(),
                        plan.cost_formula()
                    );
                }
            }
            ":stats" => {
                let s = session.stats();
                println!(
                    "  subsets: {} cached hits / {} derived / {} resolved / {} evicted; \
                     answers: {} hits / {} executed / {} evicted",
                    s.subset_hits,
                    s.subsets_derived,
                    s.subset_misses,
                    s.subset_evictions,
                    s.answer_hits,
                    s.answer_misses,
                    s.answer_evictions
                );
                println!(
                    "  columns: {} exact hits / {} derived / {} scanned / {} evicted",
                    s.column_hits, s.columns_derived, s.column_misses, s.column_evictions
                );
                println!(
                    "  optimizer: statistics catalog {}, {} feedback entries, {} mispicks",
                    if colarm.index().catalog().is_some() {
                        "present"
                    } else {
                        "absent (global-average costing)"
                    },
                    colarm.feedback().len(),
                    colarm.feedback().mispick_count()
                );
                let p = colarm::pool_stats();
                println!(
                    "  pool: {} workers, {} tasks, {} steals, {} parks/{} unparks",
                    p.workers, p.tasks_submitted, p.steals, p.parks, p.unparks
                );
            }
            ":advise" => match colarm::advisor::advise(
                colarm.index(),
                &colarm::advisor::AdvisorConfig::default(),
            ) {
                Ok(advice) => {
                    println!(
                        "  minsupport {:.1}%, minconfidence {:.1}%",
                        advice.minsupp * 100.0,
                        advice.minconf * 100.0
                    );
                    for r in &advice.ranges {
                        println!(
                            "  {:<24} {:>7} records  {:>6} fresh itemsets",
                            r.label, r.subset_size, r.fresh_local_cfis
                        );
                    }
                }
                Err(e) => println!("  error: {e}"),
            },
            ":cancel" => {
                session.cancel();
                println!("  cancel armed: the next query will be canceled");
            }
            _ if line.starts_with(":timeout") => {
                let arg = line.trim_start_matches(":timeout").trim();
                if arg.is_empty() {
                    match session.timeout() {
                        Some(t) => println!("  timeout: {t:?}"),
                        None => println!("  timeout: off"),
                    }
                } else if arg.eq_ignore_ascii_case("off") {
                    session.set_timeout(None);
                    println!("  timeout cleared");
                } else {
                    match arg.parse::<u64>() {
                        Ok(ms) => {
                            session.set_timeout(Some(Duration::from_millis(ms)));
                            println!("  timeout set to {ms} ms");
                        }
                        Err(_) => println!("  usage: :timeout <ms>|off"),
                    }
                }
            }
            _ if line.starts_with(":save") => {
                let path = line.trim_start_matches(":save").trim();
                if path.is_empty() {
                    println!("  usage: :save <path>");
                } else {
                    match colarm.save_index_snapshot(path) {
                        Ok(bytes) => println!("  snapshot written to {path} ({bytes} bytes)"),
                        Err(e) => println!("  error: {e}"),
                    }
                }
            }
            _ if line.starts_with(":load") => {
                let path = line.trim_start_matches(":load").trim();
                if path.is_empty() {
                    println!("  usage: :load <path>");
                } else {
                    match Colarm::load_index_snapshot(path) {
                        Ok(loaded) => {
                            let timeout = session.timeout();
                            colarm = loaded.into_shared();
                            schema = colarm.index().dataset().schema().clone();
                            session = QuerySession::new(colarm.clone());
                            session.set_timeout(timeout);
                            println!(
                                "  loaded {path}: {} records, {} MIPs",
                                colarm.index().dataset().num_records(),
                                colarm.index().num_mips()
                            );
                        }
                        Err(e) => println!("  error: {e}"),
                    }
                }
            }
            _ if line.starts_with(":explain") => {
                let text = line.trim_start_matches(":explain").trim();
                explain(&colarm, text);
            }
            _ if line.starts_with(":analyze") => {
                let text = line.trim_start_matches(":analyze").trim();
                analyze(&session, &schema, text);
                session.reset_cancel();
            }
            _ if line.starts_with(':') => {
                println!("  unknown command; :help lists commands");
            }
            _ if strip_analyze_prefix(line).is_some() => {
                analyze(&session, &schema, strip_analyze_prefix(line).unwrap());
                session.reset_cancel();
            }
            query_text => {
                match colarm::parse_query(query_text, &schema) {
                    Ok(query) => match session.run(&QueryRequest::query(&query).with_trace(true)) {
                        Ok(answer) => {
                            println!(
                                "  plan {} over {} records in {:?} → {} rule(s)",
                                answer.plan.name(),
                                answer.subset_size,
                                answer.trace.map(|t| t.total).unwrap_or_default(),
                                answer.rules.len()
                            );
                            for rule in answer.rules.iter().take(20) {
                                println!("    {}", rule.display(&schema));
                            }
                            if answer.rules.len() > 20 {
                                println!("    … and {} more", answer.rules.len() - 20);
                            }
                        }
                        Err(e) => println!("  error [{}]: {e}", e.code()),
                    },
                    Err(e) => println!("  parse error [{}]: {e}", e.code()),
                }
                // `:cancel` is one-shot: disarm after the attempt so the
                // session stays usable for the next query.
                session.reset_cancel();
            }
        }
    }
    Ok(())
}

/// `EXPLAIN ANALYZE <query>` → `Some("<query>")`, case-insensitively.
pub(crate) fn strip_analyze_prefix(line: &str) -> Option<&str> {
    let rest = line.trim_start();
    let mut words = rest.split_whitespace();
    if words.next()?.eq_ignore_ascii_case("EXPLAIN")
        && words.next()?.eq_ignore_ascii_case("ANALYZE")
    {
        let explain_len = rest.find(char::is_whitespace)?;
        let after_explain = rest[explain_len..].trim_start();
        let analyze_len = after_explain.find(char::is_whitespace)?;
        Some(after_explain[analyze_len..].trim_start())
    } else {
        None
    }
}

fn analyze(session: &QuerySession, schema: &colarm::data::Schema, text: &str) {
    match colarm::parse_query(text, schema) {
        Ok(query) => match session.run(&QueryRequest::query(&query).with_analyze(true)) {
            Ok(out) => {
                let report = out.analyze.expect("analyze runs carry a report");
                for line in report.to_string().lines() {
                    println!("  {line}");
                }
            }
            Err(e) => println!("  error [{}]: {e}", e.code()),
        },
        Err(e) => println!("  parse error [{}]: {e}", e.code()),
    }
}

fn explain(colarm: &Colarm, text: &str) {
    let schema = colarm.index().dataset().schema();
    match colarm::parse_query(text, schema) {
        Ok(query) => match colarm::explain(colarm, &query) {
            Ok(explanation) => {
                println!("  estimates:");
                for line in explanation.to_string().lines() {
                    println!("  {line}");
                }
            }
            Err(e) => println!("  error [{}]: {e}", e.code()),
        },
        Err(e) => println!("  parse error [{}]: {e}", e.code()),
    }
}

const HELP: &str = "  REPORT LOCALIZED ASSOCIATION RULES [FROM Dataset X]
      WHERE RANGE Attr = (v1, v2), Attr2 = (v)
      [AND ITEM ATTRIBUTES A, B]
      HAVING minsupport = 60% AND minconfidence = 80%;
  EXPLAIN ANALYZE <query>   execute + per-operator predicted vs. actual
  :schema | :plans | :explain <query> | :analyze <query> | :advise | :stats
  :timeout <ms>|off   per-query deadline (bare :timeout shows it)
  :cancel             arm the cancel token: the next query is canceled
  :save <path> | :load <path> | :quit";
