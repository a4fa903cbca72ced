#include "analyzer/analyzer.h"

#include <algorithm>

#include "core/window.h"

namespace newton {

void Analyzer::register_qid(uint32_t switch_id, uint16_t qid,
                            std::string query, std::size_t branch) {
  qid_map_[{switch_id, qid}] = {std::move(query), branch};
}

void Analyzer::register_qid_any(uint16_t qid, std::string query,
                                std::size_t branch) {
  qid_any_map_[qid] = {std::move(query), branch};
}

const std::pair<std::string, std::size_t>* Analyzer::owner_of(
    uint32_t switch_id, uint16_t qid) const {
  if (const auto it = qid_map_.find({switch_id, qid}); it != qid_map_.end())
    return &it->second;
  if (const auto it = qid_any_map_.find(qid); it != qid_any_map_.end())
    return &it->second;
  return nullptr;
}

void Analyzer::report(const ReportRecord& r) {
  ++total_reports_;
  const std::pair<std::string, std::size_t>* target =
      owner_of(r.switch_id, r.qid);
  if (target == nullptr) return;  // unregistered qid: count only
  ++per_query_reports_[target->first];
  BranchKeyed& bk = results_[*target];
  bk.all.insert(r.oper_keys);
  bk.by_window[r.ts_ns].insert(r.oper_keys);
  ++bk.key_counts[r.oper_keys];
}

Analyzer::QueryStats Analyzer::stats(const std::string& query,
                                     std::size_t branch,
                                     uint64_t window_ns) const {
  QueryStats st;
  const BranchKeyed* bk = find(query, branch);
  if (bk == nullptr || bk->by_window.empty()) return st;
  std::set<uint64_t> windows;
  for (const auto& [ts, keys] : bk->by_window)
    windows.insert(window_of(ts, window_ns));
  for (const auto& [k, n] : bk->key_counts) st.reports += n;
  st.unique_keys = bk->all.size();
  st.windows = windows.size();
  st.first_ts_ns = bk->by_window.begin()->first;
  st.last_ts_ns = bk->by_window.rbegin()->first;
  return st;
}

std::vector<std::pair<KeyArray, std::size_t>> Analyzer::top_keys(
    const std::string& query, std::size_t branch, std::size_t k) const {
  std::vector<std::pair<KeyArray, std::size_t>> out;
  const BranchKeyed* bk = find(query, branch);
  if (bk == nullptr) return out;
  out.assign(bk->key_counts.begin(), bk->key_counts.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::size_t Analyzer::reports_for(const std::string& query) const {
  const auto it = per_query_reports_.find(query);
  return it == per_query_reports_.end() ? 0 : it->second;
}

const Analyzer::BranchKeyed* Analyzer::find(const std::string& query,
                                            std::size_t branch) const {
  const auto it = results_.find({query, branch});
  return it == results_.end() ? nullptr : &it->second;
}

KeySet Analyzer::detected(const std::string& query, std::size_t branch) const {
  const BranchKeyed* bk = find(query, branch);
  return bk == nullptr ? KeySet{} : bk->all;
}

KeySet Analyzer::detected_in_window(const std::string& query,
                                    std::size_t branch, uint64_t window,
                                    uint64_t window_ns) const {
  KeySet out;
  const BranchKeyed* bk = find(query, branch);
  if (bk == nullptr) return out;
  for (const auto& [ts, keys] : bk->by_window)
    if (window_of(ts, window_ns) == window) out.insert(keys.begin(), keys.end());
  return out;
}

KeySet Analyzer::join_syn_flood(const std::string& query) const {
  KeySet out = detected(query, 0);
  for (const KeyArray& acked : detected(query, 2)) out.erase(acked);
  return out;
}

KeySet Analyzer::join_slowloris(const std::string& query) const {
  KeySet out = detected(query, 0);
  for (const KeyArray& heavy : detected(query, 1)) {
    // Byte-branch keys carry only dip; erase matching dips.
    for (auto it = out.begin(); it != out.end();) {
      if ((*it)[index(Field::DstIp)] == heavy[index(Field::DstIp)])
        it = out.erase(it);
      else
        ++it;
    }
  }
  return out;
}

KeySet Analyzer::join_dns_no_tcp(const std::string& query) const {
  std::set<uint32_t> tcp_initiators;
  for (const KeyArray& k : detected(query, 1))
    tcp_initiators.insert(k[index(Field::SrcIp)]);
  KeySet out;
  for (const KeyArray& k : detected(query, 0)) {
    const uint32_t host = k[index(Field::DstIp)];
    if (!tcp_initiators.contains(host)) {
      KeyArray only_host{};
      only_host[index(Field::DstIp)] = host;
      out.insert(only_host);
    }
  }
  return out;
}

void Analyzer::clear() {
  results_.clear();
  per_query_reports_.clear();
  total_reports_ = 0;
}

}  // namespace newton
