#include "hlint/analysis.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace hlint {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// Names too generic for the project-unique fallback: resolving `find(` to
/// the one project function named `find` would link every container lookup.
bool too_common(const std::string& name) {
  static const std::unordered_set<std::string> kCommon = {
      "insert", "erase",     "find",  "get",       "set",      "wait",
      "lock",   "unlock",    "begin", "end",       "size",     "empty",
      "clear",  "count",     "at",    "swap",      "reset",    "front",
      "back",   "push_back", "data",  "pop_back",  "pop_front","str",
      "c_str",  "emplace",   "run",   "stop",      "start",    "value",
      "values", "push_front","emplace_back",
  };
  return name.size() < 4 || kCommon.count(name) != 0;
}

/// Does the receiver of a member call plausibly name an instance of `cls`?
/// `cache_` ↔ GridCache, `executor_` ↔ HybridExecutor, `device_` ↔ Device.
bool receiver_matches_class(const std::string& recv, const std::string& cls) {
  std::string r = recv;
  while (!r.empty() && r.back() == '_') r.pop_back();
  while (!r.empty() && r.front() == '_') r.erase(0, 1);
  r = lower(r);
  if (r.size() < 3) return false;
  const std::string c = lower(cls);
  return c.find(r) != std::string::npos || r.find(c) != std::string::npos;
}

std::string lock_list(const std::vector<HeldLock>& held) {
  std::string out;
  for (const HeldLock& h : held) {
    if (!out.empty()) out += ", ";
    out += "`" + h.id + "`";
  }
  return out;
}

/// The trailing mutex-member component of a canonical lock id:
/// "GridCache::shard.mu" → "mu", "Shard::mu" → "mu". Guard matching is
/// loose on purpose — the same member mutex canonicalizes with different
/// prefixes depending on where the acquiring expression is spelled.
std::string last_component(const std::string& id) {
  const std::size_t p = id.rfind("::");
  std::string s = p == std::string::npos ? id : id.substr(p + 2);
  const std::size_t d = s.rfind('.');
  return d == std::string::npos ? s : s.substr(d + 1);
}

bool guard_satisfied(const std::string& guard,
                     const std::set<std::string>& lockset) {
  if (lockset.count(guard) != 0) return true;
  const std::string g = last_component(guard);
  for (const std::string& l : lockset)
    if (last_component(l) == g) return true;
  return false;
}

class Project {
 public:
  explicit Project(const ProjectModel& model)
      : fns_(model.functions), fields_(model.fields) {
    for (std::size_t i = 0; i < fns_.size(); ++i)
      if (!fns_[i].is_lambda) by_name_[fns_[i].name].push_back(i);
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      field_by_key_.emplace(std::make_pair(fields_[i].cls, fields_[i].name),
                            i);
      fields_by_name_[fields_[i].name].push_back(i);
      if (fields_[i].is_mutex) mutex_classes_.insert(fields_[i].cls);
      if (fields_[i].is_atomic) atomic_classes_.insert(fields_[i].cls);
    }
    for (const FnAnnotation& a : model.annotations) {
      auto& slot = annot_by_key_[{a.cls, a.name}];
      slot.first.insert(slot.first.end(), a.requires_ids.begin(),
                        a.requires_ids.end());
      slot.second.insert(slot.second.end(), a.excludes_ids.begin(),
                         a.excludes_ids.end());
    }
    resolve_all();
    close_may_block();
    compute_ambient();
    resolve_accesses();
  }

  ProjectStats stats() const {
    ProjectStats s;
    s.functions = fns_.size();
    for (const FunctionDef& f : fns_) {
      s.lock_sites += f.locks.size();
      s.call_sites += f.calls.size();
    }
    s.graph_nodes = nodes_.size();
    s.graph_edges = edges_.size();
    for (const char b : may_block_) s.blocking_fns += b != 0;
    s.field_decls = fields_.size();
    for (const auto& recs : recs_) s.field_accesses += recs.size();
    return s;
  }
  // ---- call resolution -----------------------------------------------------

  std::vector<std::size_t> resolve(const CallSite& c,
                                   const FunctionDef& caller) const {
    std::vector<std::size_t> out;
    const auto it = by_name_.find(c.name);
    if (it == by_name_.end()) return out;
    const std::vector<std::size_t>& cands = it->second;

    if (!c.qualifier.empty()) {  // Class::f() — exact
      for (const std::size_t i : cands)
        if (fns_[i].cls == c.qualifier) out.push_back(i);
      return out;
    }
    if (c.member) {  // x.f() / x->f() — receiver/class affinity
      // Generic names stay unresolved here: `resident_.clear()` is a
      // container clear, not a recursive ResidentCache::clear, even though
      // the receiver happens to echo the class name.
      if (c.receiver.empty() || too_common(c.name)) return out;
      for (const std::size_t i : cands)
        if (!fns_[i].cls.empty() &&
            receiver_matches_class(c.receiver, fns_[i].cls))
          out.push_back(i);
      return out;
    }
    // Unqualified: same class, then free function in the same file, then a
    // project-unique name that is not hopelessly generic.
    if (!caller.cls.empty()) {
      for (const std::size_t i : cands)
        if (fns_[i].cls == caller.cls) out.push_back(i);
      if (!out.empty()) return out;
    }
    for (const std::size_t i : cands)
      if (fns_[i].cls.empty() && fns_[i].file == caller.file) out.push_back(i);
    if (!out.empty()) return out;
    if (cands.size() == 1 && !too_common(c.name)) out.push_back(cands[0]);
    return out;
  }

  void resolve_all() {
    resolved_.resize(fns_.size());
    for (std::size_t f = 0; f < fns_.size(); ++f) {
      resolved_[f].reserve(fns_[f].calls.size());
      for (const CallSite& c : fns_[f].calls)
        resolved_[f].push_back(resolve(c, fns_[f]));
    }
  }

  // ---- blocking reachability -----------------------------------------------

  void close_may_block() {
    may_block_.assign(fns_.size(), 0);
    hop_call_.assign(fns_.size(), static_cast<std::size_t>(-1));
    hop_to_.assign(fns_.size(), static_cast<std::size_t>(-1));
    for (std::size_t f = 0; f < fns_.size(); ++f)
      if (!fns_[f].blocks.empty()) may_block_[f] = 1;
    // Transitive closure to fixpoint; the hop records ONE exemplar callee so
    // findings can print a concrete chain down to the primitive that blocks.
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t f = 0; f < fns_.size(); ++f) {
        if (may_block_[f] != 0) continue;
        for (std::size_t ci = 0; ci < fns_[f].calls.size(); ++ci) {
          for (const std::size_t g : resolved_[f][ci]) {
            if (may_block_[g] == 0) continue;
            may_block_[f] = 1;
            hop_call_[f] = ci;
            hop_to_[f] = g;
            changed = true;
            break;
          }
          if (may_block_[f] != 0) break;
        }
      }
    }
  }

  /// Exemplar chain from `start` down to a primitive blocking op.
  std::vector<std::string> block_chain(std::size_t start) const {
    std::vector<std::string> steps;
    std::size_t cur = start;
    for (int guard = 0; guard < 8; ++guard) {
      const FunctionDef& f = fns_[cur];
      if (!f.blocks.empty()) {
        steps.push_back(f.file + ":" + std::to_string(f.blocks[0].line) +
                        ": `" + f.qual + "` blocks here: " + f.blocks[0].desc);
        return steps;
      }
      if (hop_to_[cur] == static_cast<std::size_t>(-1)) return steps;
      const CallSite& c = f.calls[hop_call_[cur]];
      steps.push_back(f.file + ":" + std::to_string(c.line) + ": `" + f.qual +
                      "` calls `" + fns_[hop_to_[cur]].qual + "`");
      cur = hop_to_[cur];
    }
    return steps;
  }

  void blocking_findings(AllowRegistry& allows, std::vector<Finding>& out) {
    for (std::size_t fi = 0; fi < fns_.size(); ++fi) {
      const FunctionDef& f = fns_[fi];
      for (const BlockOp& b : f.blocks) {
        if (b.held.empty()) continue;
        if (allows.allows(f.file, b.line, "lock-blocking")) continue;
        Finding fd{f.file, b.line, "lock-blocking",
                   "blocking operation (" + b.desc + ") while holding " +
                       lock_list(b.held) +
                       "; shrink the lock scope or move the wait outside it",
                   {}, false, {}};
        for (const HeldLock& h : b.held)
          fd.witness.push_back(f.file + ":" + std::to_string(h.acquired_line) +
                               ": `" + h.id + "` acquired here (in `" +
                               f.qual + "`)");
        out.push_back(std::move(fd));
      }
      for (std::size_t ci = 0; ci < f.calls.size(); ++ci) {
        const CallSite& c = f.calls[ci];
        if (c.held.empty()) continue;
        std::size_t target = static_cast<std::size_t>(-1);
        for (const std::size_t g : resolved_[fi][ci])
          if (may_block_[g] != 0) {
            target = g;
            break;
          }
        if (target == static_cast<std::size_t>(-1)) continue;
        if (allows.allows(f.file, c.line, "lock-blocking")) continue;
        Finding fd{f.file, c.line, "lock-blocking",
                   "call to `" + fns_[target].qual +
                       "` can block while holding " + lock_list(c.held) +
                       "; restructure so the lock is released first",
                   {}, false, {}};
        for (const HeldLock& h : c.held)
          fd.witness.push_back(f.file + ":" + std::to_string(h.acquired_line) +
                               ": `" + h.id + "` acquired here (in `" +
                               f.qual + "`)");
        fd.witness.push_back(f.file + ":" + std::to_string(c.line) + ": `" +
                             f.qual + "` calls `" + fns_[target].qual +
                             "` with the lock held");
        for (std::string& step : block_chain(target))
          fd.witness.push_back(std::move(step));
        out.push_back(std::move(fd));
      }
    }
  }

  // ---- lock-order graph ----------------------------------------------------

  struct EdgeInfo {
    std::string file;
    std::size_t line = 0;
    std::vector<std::string> steps;
  };

  void add_edge(const std::string& from, const std::string& to,
                EdgeInfo info) {
    nodes_.insert(from);
    nodes_.insert(to);
    edges_.emplace(std::make_pair(from, to), std::move(info));  // first wins
  }

  void build_lock_graph() {
    for (std::size_t fi = 0; fi < fns_.size(); ++fi) {
      const FunctionDef& f = fns_[fi];
      for (const LockSite& l : f.locks) nodes_.insert(l.id);
      for (const LockEdge& e : f.edges) {
        EdgeInfo info;
        info.file = f.file;
        info.line = e.line;
        info.steps.push_back(f.file + ":" + std::to_string(e.line) + ": `" +
                             f.qual + "` acquires `" + e.to +
                             "` while holding `" + e.from + "`");
        add_edge(e.from, e.to, std::move(info));
      }
      // One-deep interprocedural propagation: a call made under lock A to a
      // function that acquires B is itself an A→B ordering.
      for (std::size_t ci = 0; ci < f.calls.size(); ++ci) {
        const CallSite& c = f.calls[ci];
        if (c.held.empty()) continue;
        for (const std::size_t gi : resolved_[fi][ci]) {
          const FunctionDef& g = fns_[gi];
          for (const LockSite& l : g.locks) {
            for (const HeldLock& h : c.held) {
              EdgeInfo info;
              info.file = f.file;
              info.line = c.line;
              info.steps.push_back(f.file + ":" + std::to_string(c.line) +
                                   ": `" + f.qual + "` holds `" + h.id +
                                   "` and calls `" + g.qual + "`");
              info.steps.push_back(g.file + ":" + std::to_string(l.line) +
                                   ": `" + g.qual + "` acquires `" + l.id +
                                   "`");
              add_edge(h.id, l.id, std::move(info));
            }
          }
        }
      }
    }
  }

  void cycle_findings(AllowRegistry& allows, std::vector<Finding>& out) {
    // Adjacency over sorted node names; DFS from each start node visiting
    // only names >= start, so every simple cycle is found exactly once
    // (anchored at its lexicographically smallest node).
    std::vector<std::string> order(nodes_.begin(), nodes_.end());
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [key, info] : edges_) adj[key.first].push_back(key.second);
    for (auto& [from, tos] : adj) std::sort(tos.begin(), tos.end());

    std::vector<std::vector<std::string>> cycles;
    std::vector<std::string> path;
    std::set<std::string> on_path;
    constexpr std::size_t kMaxCycles = 16, kMaxDepth = 12;

    auto dfs = [&](auto&& self, const std::string& u,
                   const std::string& start) -> void {
      if (cycles.size() >= kMaxCycles || path.size() > kMaxDepth) return;
      for (const std::string& v : adj[u]) {
        if (v == start) {
          cycles.push_back(path);
          continue;
        }
        if (v < start || on_path.count(v) != 0) continue;
        path.push_back(v);
        on_path.insert(v);
        self(self, v, start);
        on_path.erase(v);
        path.pop_back();
      }
    };
    for (const std::string& s : order) {
      path = {s};
      on_path = {s};
      dfs(dfs, s, s);
    }

    for (const std::vector<std::string>& cyc : cycles) {
      const EdgeInfo& head = edges_.at({cyc[0], cyc.size() > 1 ? cyc[1]
                                                               : cyc[0]});
      if (allows.allows(head.file, head.line, "lock-cycle")) continue;
      std::string ring;
      for (const std::string& n : cyc) ring += "`" + n + "` -> ";
      ring += "`" + cyc[0] + "`";
      Finding fd{head.file, head.line, "lock-cycle",
                 cyc.size() == 1
                     ? "potential deadlock: " + ring +
                           " (re-acquisition of a non-recursive mutex)"
                     : "potential deadlock: lock-order cycle " + ring +
                           "; two threads taking these locks in opposite "
                           "order can each wait on the other forever",
                 {}, false, {}};
      for (std::size_t i = 0; i < cyc.size(); ++i) {
        const EdgeInfo& e = edges_.at({cyc[i], cyc[(i + 1) % cyc.size()]});
        for (const std::string& step : e.steps) fd.witness.push_back(step);
      }
      out.push_back(std::move(fd));
    }
  }

  // ---- field table & lockset machinery -------------------------------------

  /// One resolved field access with its effective lockset (direct scopes ∪
  /// the function's ambient contract).
  struct AccessRec {
    std::size_t fn = 0;
    std::size_t line = 0;
    bool write = false;
    bool init = false;  ///< ctor/dtor/initialize context — Eraser-exempt
    std::set<std::string> lockset;
  };

  /// REQUIRES contract in effect for `f`: spelled on the definition, or
  /// joined from the declaring header's FnAnnotation by (class, name).
  const std::vector<std::string>& effective_requires(std::size_t f) const {
    if (!fns_[f].requires_ids.empty()) return fns_[f].requires_ids;
    const auto it = annot_by_key_.find({fns_[f].cls, fns_[f].name});
    static const std::vector<std::string> kNone;
    return it == annot_by_key_.end() ? kNone : it->second.first;
  }

  const std::vector<std::string>& effective_excludes(std::size_t f) const {
    if (!fns_[f].excludes_ids.empty()) return fns_[f].excludes_ids;
    const auto it = annot_by_key_.find({fns_[f].cls, fns_[f].name});
    static const std::vector<std::string> kNone;
    return it == annot_by_key_.end() ? kNone : it->second.second;
  }

  /// Ambient lockset: locks a function's body runs under beyond its own
  /// scopes — its REQUIRES contract plus one-deep caller propagation (a
  /// lock held at EVERY resolved incoming call site is ambient too).
  void compute_ambient() {
    ambient_.resize(fns_.size());
    for (std::size_t f = 0; f < fns_.size(); ++f)
      for (const std::string& id : effective_requires(f))
        ambient_[f].insert(id);
    std::vector<std::set<std::string>> common(fns_.size());
    std::vector<char> has_caller(fns_.size(), 0);
    for (std::size_t f = 0; f < fns_.size(); ++f) {
      for (std::size_t ci = 0; ci < fns_[f].calls.size(); ++ci) {
        std::set<std::string> held;
        for (const HeldLock& h : fns_[f].calls[ci].held) held.insert(h.id);
        for (const std::string& id : effective_requires(f)) held.insert(id);
        for (const std::size_t g : resolved_[f][ci]) {
          if (has_caller[g] == 0) {
            common[g] = held;
            has_caller[g] = 1;
          } else {
            for (auto it = common[g].begin(); it != common[g].end();)
              it = held.count(*it) != 0 ? std::next(it) : common[g].erase(it);
          }
        }
      }
    }
    for (std::size_t f = 0; f < fns_.size(); ++f)
      if (has_caller[f] != 0)
        ambient_[f].insert(common[f].begin(), common[f].end());
  }

  /// Is `fn` an initialization/teardown context for `fd`? Constructor and
  /// destructor writes are exclusive by construction; `initialize()`-style
  /// setup and `operator=` are treated the same way.
  bool init_context(const FunctionDef& fn, const FieldDecl& fd) const {
    if (fn.name == fd.cls || fn.name == "~" + fd.cls) return true;
    if (!fn.cls.empty() && (fn.name == fn.cls || fn.name == "~" + fn.cls))
      return true;
    if (fn.name == "operator") return true;
    return lower(fn.name).find("init") != std::string::npos;
  }

  /// Resolve one recorded access to a project field index (npos if it is a
  /// local / unknown identifier — the common case, dropped silently).
  std::size_t resolve_field(const FieldAccess& a,
                            const FunctionDef& fn) const {
    if (a.receiver.empty()) {
      if (fn.cls.empty()) return static_cast<std::size_t>(-1);
      const auto it = field_by_key_.find({fn.cls, a.field});
      return it == field_by_key_.end() ? static_cast<std::size_t>(-1)
                                       : it->second;
    }
    const auto it = fields_by_name_.find(a.field);
    if (it == fields_by_name_.end()) return static_cast<std::size_t>(-1);
    std::size_t hit = static_cast<std::size_t>(-1);
    for (const std::size_t fi : it->second) {
      if (!receiver_matches_class(a.receiver, fields_[fi].cls)) continue;
      if (hit != static_cast<std::size_t>(-1) &&
          fields_[hit].cls != fields_[fi].cls)
        return static_cast<std::size_t>(-1);  // ambiguous across classes
      hit = fi;
    }
    return hit;
  }

  void resolve_accesses() {
    recs_.resize(fields_.size());
    for (std::size_t f = 0; f < fns_.size(); ++f) {
      for (const FieldAccess& a : fns_[f].accesses) {
        const std::size_t fi = resolve_field(a, fns_[f]);
        if (fi == static_cast<std::size_t>(-1)) continue;
        AccessRec r;
        r.fn = f;
        r.line = a.line;
        r.write = a.write;
        r.init = init_context(fns_[f], fields_[fi]);
        for (const HeldLock& h : a.held) r.lockset.insert(h.id);
        r.lockset.insert(ambient_[f].begin(), ambient_[f].end());
        recs_[fi].push_back(std::move(r));
      }
    }
  }

  std::string access_site(const AccessRec& r, const FieldDecl& fd) const {
    const FunctionDef& f = fns_[r.fn];
    std::string locks;
    for (const std::string& id : r.lockset) {
      if (!locks.empty()) locks += ", ";
      locks += "`" + id + "`";
    }
    return f.file + ":" + std::to_string(r.line) + ": " +
           (r.write ? "write" : "read") + " of `" + fd.cls + "::" + fd.name +
           "` in `" + f.qual + "` holding " +
           (locks.empty() ? "no locks" : locks);
  }

  bool field_exempt(const FieldDecl& fd) const {
    return fd.is_atomic || fd.is_const || fd.is_mutex || fd.cls.empty() ||
           fd.name.empty();
  }

  // ---- pass: [lockset] -----------------------------------------------------

  void lockset_findings(AllowRegistry& allows, std::vector<Finding>& out) {
    constexpr std::size_t kMaxWitness = 8;
    for (std::size_t fi = 0; fi < fields_.size(); ++fi) {
      const FieldDecl& fd = fields_[fi];
      if (field_exempt(fd) || !fd.guard.empty()) continue;
      std::vector<const AccessRec*> live;
      for (const AccessRec& r : recs_[fi])
        if (!r.init) live.push_back(&r);
      if (live.empty()) continue;

      const bool has_mutex = mutex_classes_.count(fd.cls) != 0;
      const bool has_atomic = atomic_classes_.count(fd.cls) != 0;
      if (!has_mutex && !has_atomic) continue;  // not a shared-state class

      if (has_mutex) {
        bool any_write = false, ever_locked = false;
        bool locked_write = false, unlocked_write = false;
        std::set<std::string> inter = live[0]->lockset;
        for (const AccessRec* r : live) {
          any_write |= r->write;
          ever_locked |= !r->lockset.empty();
          if (r->write) (r->lockset.empty() ? unlocked_write : locked_write) =
              true;
          for (auto it = inter.begin(); it != inter.end();)
            it = r->lockset.count(*it) != 0 ? std::next(it) : inter.erase(it);
        }
        // Eraser: a field is suspect once (a) it is ever touched under a
        // lock yet no single lock covers every access, or (b) writes happen
        // both with and without locks. Read-only-after-init fields pass.
        const bool eraser_empty = inter.empty() && ever_locked && any_write;
        const bool mixed_writes = locked_write && unlocked_write;
        if (!eraser_empty && !mixed_writes) continue;
        if (allows.allows(fd.file, fd.line, "lockset")) continue;
        std::size_t unprotected = 0;
        for (const AccessRec* r : live) unprotected += r->lockset.empty();
        Finding f{fd.file, fd.line, "lockset",
                  "lockset for `" + fd.cls + "::" + fd.name +
                      "` is inconsistent: " +
                      (mixed_writes
                           ? "written both with and without a lock held"
                           : "no single lock covers every access (" +
                                 std::to_string(unprotected) + " of " +
                                 std::to_string(live.size()) +
                                 " accesses hold no lock)") +
                      "; guard every access with one mutex, make the field "
                      "std::atomic, or confine writes to initialization",
                  {}, false, {}};
        for (std::size_t w = 0; w < live.size() && w < kMaxWitness; ++w)
          f.witness.push_back(access_site(*live[w], fd));
        if (live.size() > kMaxWitness)
          f.witness.push_back("(" + std::to_string(live.size() - kMaxWitness) +
                              " more access sites elided)");
        out.push_back(std::move(f));
      } else if (has_atomic) {
        // Lock-free shared struct: plain fields must be init-only.
        std::vector<const AccessRec*> writes;
        for (const AccessRec* r : live)
          if (r->write) writes.push_back(r);
        if (writes.empty()) continue;
        if (allows.allows(fd.file, fd.line, "lockset")) continue;
        Finding f{fd.file, fd.line, "lockset",
                  "plain field `" + fd.cls + "::" + fd.name +
                      "` of a lock-free shared struct is written outside "
                      "initialization while sibling fields are atomic; make "
                      "it std::atomic or confine writes to initialize()",
                  {}, false, {}};
        for (std::size_t w = 0; w < writes.size() && w < kMaxWitness; ++w)
          f.witness.push_back(access_site(*writes[w], fd));
        out.push_back(std::move(f));
      }
    }
  }

  // ---- pass: [guard-verify] ------------------------------------------------

  void guard_verify_findings(AllowRegistry& allows,
                             std::vector<Finding>& out) {
    constexpr std::size_t kMaxWitness = 8;
    // (a) declared guards vs observed locksets.
    for (std::size_t fi = 0; fi < fields_.size(); ++fi) {
      const FieldDecl& fd = fields_[fi];
      if (fd.guard.empty() || fd.is_mutex) continue;
      std::vector<const AccessRec*> bad;
      for (const AccessRec& r : recs_[fi])
        if (!r.init && !guard_satisfied(fd.guard, r.lockset))
          bad.push_back(&r);
      if (bad.empty()) continue;
      const FunctionDef& first_fn = fns_[bad[0]->fn];
      if (allows.allows(first_fn.file, bad[0]->line, "guard-verify")) continue;
      if (allows.allows(fd.file, fd.line, "guard-verify")) continue;
      Finding f{first_fn.file, bad[0]->line, "guard-verify",
                "field `" + fd.cls + "::" + fd.name +
                    "` is declared GUARDED_BY `" + fd.guard + "` but " +
                    std::to_string(bad.size()) +
                    " access(es) do not hold it; take the lock or extract a "
                    "REQUIRES-annotated locked helper",
                {}, false, {}};
      f.witness.push_back(fd.file + ":" + std::to_string(fd.line) +
                          ": `" + fd.cls + "::" + fd.name +
                          "` declared GUARDED_BY `" + fd.guard + "` here");
      for (std::size_t w = 0; w < bad.size() && w < kMaxWitness; ++w)
        f.witness.push_back(access_site(*bad[w], fd));
      out.push_back(std::move(f));
    }
    // (b) guard-worthy unannotated fields → ready-to-paste suggestion.
    for (std::size_t fi = 0; fi < fields_.size(); ++fi) {
      const FieldDecl& fd = fields_[fi];
      if (field_exempt(fd) || !fd.guard.empty()) continue;
      if (mutex_classes_.count(fd.cls) == 0) continue;
      std::vector<const AccessRec*> live;
      bool any_write = false;
      for (const AccessRec& r : recs_[fi])
        if (!r.init) {
          live.push_back(&r);
          any_write |= r.write;
        }
      if (live.size() < 2 || !any_write) continue;
      std::set<std::string> inter = live[0]->lockset;
      for (const AccessRec* r : live)
        for (auto it = inter.begin(); it != inter.end();)
          it = r->lockset.count(*it) != 0 ? std::next(it) : inter.erase(it);
      if (inter.empty()) continue;  // racy fields belong to [lockset]
      if (allows.allows(fd.file, fd.line, "guard-verify")) continue;
      const std::string& lock = *inter.begin();
      const std::size_t sep = lock.rfind("::");
      const std::string expr =
          sep == std::string::npos ? lock : lock.substr(sep + 2);
      Finding f{fd.file, fd.line, "guard-verify",
                "field `" + fd.cls + "::" + fd.name + "` is always accessed (" +
                    std::to_string(live.size()) + " sites) holding `" + lock +
                    "` but carries no annotation; declare the invariant so "
                    "the compiler enforces it",
                {}, false, "HSPEC_GUARDED_BY(" + expr + ")"};
      for (std::size_t w = 0; w < live.size() && w < kMaxWitness; ++w)
        f.witness.push_back(access_site(*live[w], fd));
      out.push_back(std::move(f));
    }
    // (c)+(d) REQUIRES/EXCLUDES contracts at uniquely-resolved call sites.
    for (std::size_t f = 0; f < fns_.size(); ++f) {
      for (std::size_t ci = 0; ci < fns_[f].calls.size(); ++ci) {
        if (resolved_[f][ci].size() != 1) continue;
        const std::size_t g = resolved_[f][ci][0];
        const CallSite& c = fns_[f].calls[ci];
        std::set<std::string> held;
        for (const HeldLock& h : c.held) held.insert(h.id);
        for (const std::string& id : effective_requires(f)) held.insert(id);
        for (const std::string& req : effective_requires(g)) {
          std::set<std::string> with_ambient = held;
          with_ambient.insert(ambient_[f].begin(), ambient_[f].end());
          if (guard_satisfied(req, with_ambient)) continue;
          if (allows.allows(fns_[f].file, c.line, "guard-verify")) continue;
          Finding fd{fns_[f].file, c.line, "guard-verify",
                     "call to `" + fns_[g].qual + "` REQUIRES `" + req +
                         "` but the caller does not hold it",
                     {}, false, {}};
          fd.witness.push_back(fns_[g].file + ":" +
                               std::to_string(fns_[g].line) + ": `" +
                               fns_[g].qual + "` declared REQUIRES `" + req +
                               "`");
          out.push_back(std::move(fd));
        }
        for (const std::string& exc : effective_excludes(g)) {
          if (held.count(exc) == 0) continue;  // strict match only
          if (allows.allows(fns_[f].file, c.line, "guard-verify")) continue;
          Finding fd{fns_[f].file, c.line, "guard-verify",
                     "call to `" + fns_[g].qual + "` EXCLUDES `" + exc +
                         "` but the caller holds it (re-acquisition would "
                         "self-deadlock)",
                     {}, false, {}};
          fd.witness.push_back(fns_[g].file + ":" +
                               std::to_string(fns_[g].line) + ": `" +
                               fns_[g].qual + "` declared EXCLUDES `" + exc +
                               "`");
          out.push_back(std::move(fd));
        }
      }
    }
  }

  // ---- pass: [hot-reach] ---------------------------------------------------

  static bool hot_alloc_root_file(const std::string& p) {
    if (p.find("src/vgpu") == std::string::npos) return false;
    const auto slash = p.find_last_of('/');
    const std::string name =
        slash == std::string::npos ? p : p.substr(slash + 1);
    return name.find("kernel") != std::string::npos ||
           name.find("stream") != std::string::npos;
  }

  static bool sanctioned_alloc_class(const std::string& cls) {
    return cls == "BufferPool" || cls == "ScratchArena" ||
           cls == "ResidentCache";
  }

  /// BFS over resolved calls from `roots`; `parent`/`parent_call` record
  /// the discovery tree so findings can print a witness chain.
  void reach_bfs(std::vector<std::size_t> roots, std::vector<char>& visited,
                 std::vector<std::size_t>& parent,
                 std::vector<std::size_t>& parent_call,
                 bool stop_at_sanctioned) const {
    visited.assign(fns_.size(), 0);
    parent.assign(fns_.size(), static_cast<std::size_t>(-1));
    parent_call.assign(fns_.size(), static_cast<std::size_t>(-1));
    for (const std::size_t r : roots) visited[r] = 1;
    std::size_t head = 0;
    while (head < roots.size()) {
      const std::size_t f = roots[head++];
      for (std::size_t ci = 0; ci < fns_[f].calls.size(); ++ci) {
        for (const std::size_t g : resolved_[f][ci]) {
          if (visited[g] != 0) continue;
          if (stop_at_sanctioned && sanctioned_alloc_class(fns_[g].cls))
            continue;
          visited[g] = 1;
          parent[g] = f;
          parent_call[g] = ci;
          roots.push_back(g);
        }
      }
    }
  }

  /// Witness chain root → ... → `f` along the BFS discovery tree.
  std::vector<std::string> reach_chain(std::size_t f,
                                       const std::vector<std::size_t>& parent,
                                       const std::vector<std::size_t>&
                                           parent_call) const {
    std::vector<std::string> steps;
    std::size_t cur = f;
    for (int guard = 0; guard < 12; ++guard) {
      const std::size_t p = parent[cur];
      if (p == static_cast<std::size_t>(-1)) break;
      const CallSite& c = fns_[p].calls[parent_call[cur]];
      steps.push_back(fns_[p].file + ":" + std::to_string(c.line) + ": `" +
                      fns_[p].qual + "` calls `" + fns_[cur].qual + "`");
      cur = p;
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  }

  void hot_reach_findings(AllowRegistry& allows, std::vector<Finding>& out) {
    std::vector<char> visited;
    std::vector<std::size_t> parent, parent_call;

    // (a) Device::alloc reachable from kernel/stream entry points — the
    // call-graph escalation of the old lexical [hot-alloc] rule (same rule
    // id and message, so the CI baseline diff stays meaningful).
    std::vector<std::size_t> roots;
    for (std::size_t f = 0; f < fns_.size(); ++f)
      if (hot_alloc_root_file(fns_[f].file)) roots.push_back(f);
    reach_bfs(std::move(roots), visited, parent, parent_call, true);
    for (std::size_t f = 0; f < fns_.size(); ++f) {
      if (visited[f] == 0) continue;
      if (sanctioned_alloc_class(fns_[f].cls)) continue;
      for (const CallSite& c : fns_[f].calls) {
        if (c.name != "alloc" || !c.member) continue;
        const std::string recv = lower(c.receiver);
        if (recv.find("arena") != std::string::npos ||
            recv.find("scratch") != std::string::npos ||
            recv.find("pool") != std::string::npos)
          continue;  // the sanctioned bump allocator / pool lease
        if (allows.allows(fns_[f].file, c.line, "hot-alloc")) continue;
        Finding fd{fns_[f].file, c.line, "hot-alloc",
                   "Device::alloc on a kernel/stream hot path serializes "
                   "the device; lease from a BufferPool or bump-allocate "
                   "from a ScratchArena",
                   {}, false, {}};
        for (std::string& s : reach_chain(f, parent, parent_call))
          fd.witness.push_back(std::move(s));
        fd.witness.push_back(fns_[f].file + ":" + std::to_string(c.line) +
                             ": `" + fns_[f].qual + "` calls `" +
                             (c.receiver.empty() ? "" : c.receiver + ".") +
                             "alloc` here");
        out.push_back(std::move(fd));
      }
    }

    // (b) std::exp-family transcendentals reachable from bit-identity-
    // critical integrand code, which must use util::fm:: (DESIGN.md §6).
    roots.clear();
    for (std::size_t f = 0; f < fns_.size(); ++f)
      if (lower(fns_[f].cls).find("integrand") != std::string::npos ||
          lower(fns_[f].name).find("integrand") != std::string::npos)
        roots.push_back(f);
    reach_bfs(std::move(roots), visited, parent, parent_call, false);
    static const std::unordered_set<std::string> kTranscendental = {
        "exp", "log", "pow", "expm1", "log1p", "exp2", "log2"};
    for (std::size_t f = 0; f < fns_.size(); ++f) {
      if (visited[f] == 0) continue;
      for (const CallSite& c : fns_[f].calls) {
        if (kTranscendental.count(c.name) == 0) continue;
        const bool std_call =
            c.qualifier == "std" || (c.qualifier.empty() && !c.member);
        if (!std_call) continue;
        if (allows.allows(fns_[f].file, c.line, "hot-reach")) continue;
        Finding fd{fns_[f].file, c.line, "hot-reach",
                   "`std::" + c.name +
                       "` is reachable from a bit-identity-critical "
                       "integrand path; batch/scalar spectra must match "
                       "bitwise — use the util::fm:: equivalent",
                   {}, false, {}};
        for (std::string& s : reach_chain(f, parent, parent_call))
          fd.witness.push_back(std::move(s));
        fd.witness.push_back(fns_[f].file + ":" + std::to_string(c.line) +
                             ": `" + fns_[f].qual + "` calls `" + c.name +
                             "` here");
        out.push_back(std::move(fd));
      }
    }
  }

  const std::vector<FunctionDef>& fns_;
  const std::vector<FieldDecl>& fields_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_name_;
  std::map<std::pair<std::string, std::string>, std::size_t> field_by_key_;
  std::unordered_map<std::string, std::vector<std::size_t>> fields_by_name_;
  std::map<std::pair<std::string, std::string>,
           std::pair<std::vector<std::string>, std::vector<std::string>>>
      annot_by_key_;
  std::set<std::string> mutex_classes_, atomic_classes_;
  std::vector<std::set<std::string>> ambient_;
  std::vector<std::vector<AccessRec>> recs_;
  std::vector<std::vector<std::vector<std::size_t>>> resolved_;
  std::vector<char> may_block_;
  std::vector<std::size_t> hop_call_, hop_to_;
  std::set<std::string> nodes_;
  std::map<std::pair<std::string, std::string>, EdgeInfo> edges_;
};

}  // namespace

ProjectStats analyze_project(const ProjectModel& model,
                             AllowRegistry& allows,
                             std::vector<Finding>& findings,
                             std::vector<PassStat>& passes) {
  Project p(model);
  const auto timed = [&](const char* name, auto&& pass) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t before = findings.size();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    passes.push_back(
        {name, findings.size() - before,
         std::chrono::duration<double, std::milli>(t1 - t0).count()});
  };
  timed("lock-blocking", [&] { p.blocking_findings(allows, findings); });
  timed("lock-cycle", [&] {
    p.build_lock_graph();
    p.cycle_findings(allows, findings);
  });
  timed("lockset", [&] { p.lockset_findings(allows, findings); });
  timed("guard-verify", [&] { p.guard_verify_findings(allows, findings); });
  timed("hot-reach", [&] { p.hot_reach_findings(allows, findings); });
  return p.stats();
}

}  // namespace hlint
