/**
 * @file
 * Tiny command-line option parser shared by benches and examples.
 *
 * Syntax: --key=value or --flag (boolean true). Unknown keys are a
 * fatal error so typos in sweep scripts fail loudly. Positional
 * arguments are collected in order.
 */

#ifndef MINNOW_BASE_OPTIONS_HH
#define MINNOW_BASE_OPTIONS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace minnow
{

/** Parsed command line with typed accessors and usage tracking. */
class Options
{
  public:
    /** Parse argv; fatal() on malformed arguments. */
    Options(int argc, const char *const *argv);

    /** Construct from pre-split "key=value" strings (for tests). */
    explicit Options(const std::vector<std::string> &args);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &dflt) const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;

    /**
     * Comma-separated list (--key=a,b,c), or @p dflt split the same
     * way when the key is absent. Empty items are dropped, so "" and
     * "a,,b," give {} and {a, b}.
     */
    std::vector<std::string> getList(const std::string &key,
                                     const std::string &dflt) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * fatal() if any provided --key was never read by a getter; call
     * after all options are consumed to catch typos.
     */
    void rejectUnused() const;

  private:
    void addArg(const std::string &arg);

    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
    mutable std::set<std::string> used_;
};

} // namespace minnow

#endif // MINNOW_BASE_OPTIONS_HH
