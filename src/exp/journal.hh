/**
 * @file
 * Durable output documents.
 *
 * writeFileAtomic writes a document to `<path>.tmp`, fsyncs it and
 * renames it over `<path>`, then fsyncs the directory: an observer sees
 * either the old document or the complete new one, never a torn write,
 * and the new one survives a crash once the call returns.
 */

#ifndef PERSIM_EXP_JOURNAL_HH
#define PERSIM_EXP_JOURNAL_HH

#include <string>

namespace persim::exp
{

/**
 * Durably replace @p path: write to `<path>.tmp`, fsync, rename over
 * @p path, fsync the directory. Throws SimFatal on I/O errors.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

} // namespace persim::exp

#endif // PERSIM_EXP_JOURNAL_HH
